"""Levenberg-Marquardt iteration counts of one benchmark pass, bounded.

The benchmark's ``frames_per_s`` spreads by about a quarter between runs on
a shared host, so a slower start that costs a tenth of a pass can hide in
it. The number of LM iterations a pass takes is a function of its inputs
alone: this test runs one city-turns pass on the benchmark's own inputs
(``perfbench.scenarios``) and bounds the iterations that bundle adjustment
(``sfm.solve_least_squares``), registration (``reproject.solve_least_squares``)
and fusion (``fusion.solve_least_squares``) take. The bounds leave room above
the counts they guard (BA 171, registration 872, fusion 6) for rounding
that differs between hosts. The BA and fusion bounds sit well below the
counts of solves started off their GPS gauge (BA 307, fusion 86), and the
registration bound below the 959 of starts chained along the INS from the
nearest registered frame.

The same pass counts final bundle adjustments, the ones run without an
iteration cap: one per built subset. A subset that registers too few of its
frames is discarded before its final one.
"""

from cityvps import fusion
from cityvps.geometry import reproject
from cityvps.mapbuild import sfm
from perfbench import metrics, workloads
from perfbench.scenarios import city_turns
from perfbench.tracing import Tracer

BA_ITERATIONS_MAX = 230
PNP_ITERATIONS_MAX = 930
FUSION_ITERATIONS_MAX = 12


def test_city_turns_pass_stays_within_its_lm_iterations(monkeypatch):
    iterations = {sfm: 0, reproject: 0, fusion: 0}

    def spy(module):
        solve = module.solve_least_squares

        def counted(*args, **kwargs):
            result = solve(*args, **kwargs)
            iterations[module] += result.iterations
            return result

        monkeypatch.setattr(module, "solve_least_squares", counted)

    spy(sfm)
    spy(reproject)
    spy(fusion)
    final_adjustments = 0
    bundle_adjust = sfm.bundle_adjust

    def final_counted(*args, max_iterations=None, **kwargs):
        nonlocal final_adjustments
        final_adjustments += max_iterations is None
        return bundle_adjust(*args, max_iterations=max_iterations, **kwargs)

    monkeypatch.setattr(sfm, "bundle_adjust", final_counted)
    tracer = Tracer(False)
    ledger = metrics.Ledger()
    result = workloads.mapbuild_pass(city_turns(1, tracer), tracer, ledger, workloads._city_subsets)

    assert result.final_map is not None and len(result.built) == 2
    assert (ledger.attempted, ledger.failed) == (9, 4)
    assert iterations[sfm] <= BA_ITERATIONS_MAX
    assert iterations[reproject] <= PNP_ITERATIONS_MAX
    assert iterations[fusion] <= FUSION_ITERATIONS_MAX
    assert final_adjustments == len(result.built)
