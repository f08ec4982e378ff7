"""Wall-clock benchmark of the fuzzy SQL engine; entry point ``perfbench/run.py``."""
