"""Map-building benchmark for cityvps; see README.md. Entry point: run.py."""
