"""The performance ledger: this repository's benchmark.

Five named workloads over the three runtimes (DES, live farm, ``repro
serve``), six end-to-end metrics plus ``failed_share``, and 72
per-layer metrics.  ``ledger`` calls only public functions of ``repro``,
patches nothing and adds no switch to the program; see ``README.md`` in
this directory for the glossary and for how to read the output.

Entry points (all through ``python -m ledger``):

* ``--workload W --seed N --seconds S --trace 0|1`` — one workload, one
  pass; the last stdout line is the driver's result object;
* ``--seed N --out FILE`` — every workload, timed pass then traced pass,
  one child process per workload and pass, sequentially;
* ``compare A.json B.json`` — row-by-row verdict on two ``--out`` files.

(``--workload W --setup-only`` prints one ``setup_s`` sample of a fresh
interpreter; the DES passes call it on themselves.)
"""
