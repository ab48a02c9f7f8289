"""Workload passes, the closed-loop run around them, and what a run reports.

One caller in one process runs whole passes back to back. A pass takes
frames to a geo-aligned map: split, tracks, then one operation per subset
(``build_submap`` and ``verify_submap``), then three fusion calls, one
operation each: ``build_global_map`` over all verified submaps but the
last, ``update_map`` that adds the last, and ``remove_submaps`` that takes
it out again.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from cityvps.fusion import build_global_map, remove_submaps, update_map
from cityvps.mapbuild import (
    InsufficientOverlap,
    SolverDiverged,
    augment_subsets,
    build_submap,
    build_tracks,
    split_experience,
    verify_submap,
)

from . import metrics
from .scenarios import SETUPS, Inputs
from .tracing import Tracer, instrument, self_times

SETUPS_PER_PASS = 3  # set-ups timed before the first pass and again after every pass
CITY_MAX_SIZE = 40
CITY_AUGMENT_BUDGET = 10


@dataclass
class PassResult:
    wall_s: float
    account: metrics.FusionAccount
    final_map: object  # the map holding every submap of the pass, None if a call failed first
    built: list = field(default_factory=list)  # verified submaps
    roundtrip: tuple = ()  # two maps that must hold the same transforms


def attempt_subset(subset, tracks, inputs: Inputs, tracer) -> tuple:
    """One operation: build and verify a subset. Returns (submap or None, reasons)."""
    try:
        with tracer.span("sfm.build_submap"):
            submap = build_submap(subset, tracks, inputs.frames_by_id, inputs.camera)
    except InsufficientOverlap as exc:
        return None, [f"InsufficientOverlap: {exc}"]
    if submap.status != "built":
        return None, [f"discarded: {r}" for r in submap.discard_reasons]
    with tracer.span("verify.verify_submap"):
        submap.verification = verify_submap(submap, inputs.frames_by_id)
    if not submap.verification.passed:
        tracer.count("verify.rejected")
        return None, [f"verification: {r}" for r in submap.verification.reasons]
    return submap, []


def fusion_calls(calls, tracer, ledger) -> tuple:
    """Run fusion calls in order, one operation each.

    `calls` holds (span name, function, arguments from the maps so far,
    whether it updates a map). A call that raises SolverDiverged fails, and
    so does every later one, as not run. Returns (maps, account), with None
    for each call that failed.
    """
    account = metrics.FusionAccount()
    maps = []
    failure = None
    for name, fn, args, update in calls:
        if failure is not None:
            ledger.record([f"not run: {failure}"])
            maps.append(None)
            continue
        call_args = args(maps)
        start = time.perf_counter()
        try:
            with tracer.span(name):
                global_map = fn(*call_args)
        except SolverDiverged as exc:
            failure = f"{name}: SolverDiverged: {exc}"
            ledger.record([failure])
            maps.append(None)
            continue
        account.record(global_map, time.perf_counter() - start if update else None)
        ledger.record()
        maps.append(global_map)
    return maps, account


def _street_subsets(inputs: Inputs, tracer):
    with tracer.span("split.split_experience"):
        return split_experience(inputs.experiences[0])


def _city_subsets(inputs: Inputs, tracer):
    subsets = []
    with tracer.span("split.split_experience"):
        for exp in inputs.experiences:
            subsets += split_experience(exp, max_size=CITY_MAX_SIZE, subset_id_base=len(subsets))
    with tracer.span("split.augment_subsets"):
        return augment_subsets(subsets, inputs.frames_by_id, per_subset_budget=CITY_AUGMENT_BUDGET)


def mapbuild_pass(inputs: Inputs, tracer, ledger, make_subsets) -> PassResult:
    start = time.perf_counter()
    subsets = make_subsets(inputs, tracer)
    tracer.count("split.subsets", len(subsets))
    tracer.count("split.frames_borrowed", sum(len(s.augmented_ids) for s in subsets))
    built = []
    for subset in subsets:
        with tracer.span("tracks.build_tracks"):
            tracks = build_tracks(subset, inputs.frames_by_id)
        tracer.count("tracks.tracks", len(tracks))
        tracer.count("tracks.observations", sum(len(t.observations) for t in tracks))
        tracer.count("sfm.frames_attempted", len(subset.all_ids()))
        submap, reasons = attempt_subset(subset, tracks, inputs, tracer)
        ledger.record(reasons)
        if submap is not None:
            built.append(submap)
    # The last verified submap arrives as an update to the map of the others,
    # then is removed again.
    last = built[-1:]
    maps, account = fusion_calls(
        [
            ("fusion.build_global_map", build_global_map, lambda m: (built[:-1],), False),
            ("fusion.update_map", update_map, lambda m: (m[0], last), True),
            ("fusion.remove_submaps", remove_submaps, lambda m: (m[1], [s.submap_id for s in last]), True),
        ],
        tracer,
        ledger,
    )
    wall = time.perf_counter() - start
    roundtrip = (maps[0], maps[2]) if maps[2] is not None else ()
    return PassResult(wall, account, maps[1], built=built, roundtrip=roundtrip)


def check_pass(inputs: Inputs, result: PassResult):
    """Judge one pass's outputs against the truth and the method's properties."""
    final = result.final_map
    for submap in result.built:
        metrics.check_rmse(submap, inputs.camera)
    if final is not None:
        metrics.check_tiles(final)
        if final.submaps:
            metrics.check_better_than_gps(final, inputs.oracle)
    if result.roundtrip:
        metrics.check_roundtrip(*result.roundtrip)


def quality(inputs: Inputs, global_map) -> dict:
    """Oracle errors and mapped frames of one pass's final map."""
    pos, rot = metrics.pose_errors(global_map, inputs.oracle)
    lm = metrics.landmark_errors(global_map, inputs.oracle, inputs.frames_by_id, inputs.landmarks)
    return {
        "frames_mapped": len(metrics.fused_frame_ids(global_map)),
        "pose_err_m": float(np.mean(pos)) if pos.size else float("nan"),
        "rot_err_deg": float(np.median(rot)) if rot.size else float("nan"),
        "landmark_err_m": float(np.median(lm)) if lm.size else float("nan"),
    }


def layer_metrics(tracer: Tracer, first_span: int, counts: dict, result: PassResult) -> tuple:
    """Per-layer figures of one traced pass, and its self seconds per span name."""
    table = self_times(tracer.spans, first_span)

    def inclusive(name):
        return table.get(name, (0.0, 0.0, 0))[0]

    def own(name):
        return table.get(name, (0.0, 0.0, 0))[1]

    def count(name):
        return counts.get(name, 0.0)

    out = {
        "worldsim.simulate_s": 0.0,  # filled in from the setups
        "split.split_s": inclusive("split.split_experience"),
        "split.augment_s": inclusive("split.augment_subsets"),
        "split.subsets": count("split.subsets"),
        "split.frames_borrowed": count("split.frames_borrowed"),
        "tracks.build_s": inclusive("tracks.build_tracks"),
        "tracks.tracks": count("tracks.tracks"),
        "tracks.observations": count("tracks.observations"),
        "sfm.build_submap_s": inclusive("sfm.build_submap"),
        "sfm.self_s": own("sfm.build_submap"),
        "sfm.bundle_adjust_s": inclusive("sfm.bundle_adjust"),
        "sfm.bundle_adjust_calls": table.get("sfm.bundle_adjust", (0, 0, 0))[2],
        "sfm.ba_params_max": count("sfm.ba_params_max"),
        "sfm.refine_pose_s": inclusive("sfm.refine_pose"),
        "sfm.refine_pose_calls": table.get("sfm.refine_pose", (0, 0, 0))[2],
        "sfm.triangulate_s": inclusive("sfm.triangulate_track"),
        "sfm.triangulate_calls": count("sfm.triangulate_calls"),
        "sfm.triangulate_ok_ratio": count("sfm.triangulate_ok") / max(1.0, count("sfm.triangulate_calls")),
        "sfm.frames_registered": float(sum(len(sm.poses) for sm in result.built)),
        "sfm.registered_ratio": sum(len(sm.poses) for sm in result.built) / max(1.0, count("sfm.frames_attempted")),
        "verify.verify_s": inclusive("verify.verify_submap"),
        "verify.rejected": count("verify.rejected"),
        "fusion.fuse_s": inclusive("fusion.fuse"),
        "fusion.post_lm_s": own("fusion.fuse"),
        "fusion.lm_iterations": count("fusion.lm_iterations"),
        "fusion.components_solved": count("fusion.components_solved"),
        "fusion.components_reused": count("fusion.components_reused"),
        "fusion.tile_index_s": inclusive("fusion.build_tile_index"),
        "fusion.update_s": statistics.mean(result.account.updates_s) if result.account.updates_s else float("nan"),
    }
    for caller in ("ba", "pnp", "fusion"):
        prefix = f"lsq.{caller}."
        out[prefix + "solve_s"] = inclusive(prefix + "solve")
        for name in ("solves", "iterations", "trial_steps", "rejected_steps"):
            out[prefix + name] = count(prefix + name)
    out["lsq.ba.dense_gflop_computed"] = count("lsq.ba.dense_gflop_computed")
    out["lsq.ba.dense_bytes_computed"] = count("lsq.ba.dense_bytes_computed")
    out["trace.pass_s"] = inclusive("pass")
    out["trace.remainder_s"] = own("pass")
    out["trace.frames_per_s"] = result.account.fused_frames / result.wall_s
    return out, {name: own_s for name, (_, own_s, _) in table.items()}


def timed_setups(workload: str, seed: int, tracer, setup_s: list, simulate_s: list) -> Inputs:
    """Set the workload up SETUPS_PER_PASS times, timing each; returns the last inputs."""
    for _ in range(SETUPS_PER_PASS):
        first = len(tracer.spans)
        start = time.perf_counter()
        inputs = SETUPS[workload](seed, tracer)
        setup_s.append(time.perf_counter() - start)
        simulate_s.append(self_times(tracer.spans, first).get("worldsim.simulate", (0.0,))[0])
    return inputs


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run whole passes for about `seconds`, check them, and report."""
    tracer = Tracer(trace)
    setup_s, simulate_s = [], []
    inputs = timed_setups(workload, seed, tracer, setup_s, simulate_s)
    tracer.take_counts()
    # The inputs stay alive for the whole run; frozen, the collector no longer
    # scans them, so its pauses depend on what the program allocates.
    gc.collect()
    gc.freeze()

    ledger = metrics.Ledger()
    restore = instrument(tracer) if trace else (lambda: None)
    walls, rates, update_calls, layers, self_tables, qualities, rounds = [], [], [], [], [], [], []
    failed_checks = []
    clock = time.perf_counter()
    try:
        while True:
            round_start = time.perf_counter()
            gc.collect()
            first = len(tracer.spans)
            with tracer.span("pass"):
                make = _street_subsets if workload == "street-long" else _city_subsets
                result = mapbuild_pass(inputs, tracer, ledger, make)
            counts = tracer.take_counts()
            walls.append(result.wall_s)
            rates.append(result.account.fused_frames / result.wall_s)
            update_calls.append(result.account.updates_s)
            try:
                check_pass(inputs, result)
            except metrics.CheckFailed as exc:
                failed_checks.append(str(exc))
            if result.final_map is not None:
                qualities.append(quality(inputs, result.final_map))
            if trace:
                layer, own = layer_metrics(tracer, first, counts, result)
                layers.append(layer)
                self_tables.append(own)
            # Set-ups are sampled through the whole run, like the passes: the
            # host's slow periods last from seconds to minutes.
            timed_setups(workload, seed, tracer, setup_s, simulate_s)
            rounds.append(time.perf_counter() - round_start)
            # Stop before a pass that would likely end after the deadline.
            if time.perf_counter() - clock + statistics.median(rounds) > seconds:
                break
    finally:
        restore()

    report = {
        "workload": workload,
        "seed": seed,
        "passes": len(walls),
        "pass_s": walls,
        "update_calls_s": update_calls,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failure_reasons": dict(ledger.reasons),
        "setup_s": setup_s,
    }
    if not qualities:
        failed_checks.append("no pass produced a map")
    elif any(repr(q) != repr(qualities[0]) for q in qualities):
        failed_checks.append("passes over the same inputs produced different maps")
    report["failed_checks"] = failed_checks
    if trace:
        per_layer = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        per_layer["worldsim.simulate_s"] = statistics.median(simulate_s)
        report["per_layer"] = per_layer
        report["self_s"] = self_tables
        report["spans"] = tracer.spans
    else:
        report["end_to_end"] = {
            "setup_s": statistics.median(setup_s),
            "frames_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **(qualities[0] if qualities else {}),
        }
    return report
