"""Static analysis of guest binaries.

:mod:`.guestcfg` builds basic blocks and a CFG over SimRISC programs via
the simulator's own decoder, producing static footprint/branch-density
reports that cross-check the dynamic traces behind the paper's
Figs. 3–6 (``repro-g5 guest``).  The sampler reuses its leader rule
(``repro.sample.bbv``).
"""
