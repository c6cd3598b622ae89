"""End-to-end benchmark of the MetaDPA train -> artifact -> serve stack.

The package behind ``perfbench/run.py``.  Every module measures the
program from outside: it times calls into the public ``repro`` API and
reads the counters and histograms the program already publishes.  Nothing
here is imported by the program itself.
"""
