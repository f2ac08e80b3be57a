"""End-to-end serving benchmark of the plan service (see ``perfbench/run.py``)."""
