"""Fixed parameters of every benchmark workload.

Everything a run measures is a function of these constants and the
``--seed`` argument.  Changing a value here changes the benchmark, so a
change that claims a speed-up must leave this file alone.
"""

from __future__ import annotations

# -- grids ---------------------------------------------------------------------

#: Cells every replay-grid pass runs: Fig. 8 at FULL scale, 4 codes x
#: p in {7, 11, 13} x fifo/lru/lfu/arc/fbf x 8 MB..2 GB, 400 errors,
#: 128 simulated SOR workers (the FULL ``Scale`` of ``repro.bench``).
REPLAY_GRID = {"experiment": "fig8", "scale": "full"}

#: Cells every timed-grid pass runs: the Fig. 10 DES cells at QUICK
#: scale (4 codes x 3 p x 5 policies x 2..64 MB, 48 errors, 32 SOR
#: workers) followed by the 8-cell cluster grid.
TIMED_GRID = {"experiment": "fig10+cluster", "scale": "quick"}

#: A grid run spawns extra processes that stop just before their first
#: ``run_grid`` call, so ``setup_s`` is a median of at least this many
#: set-ups even when only one timed pass fits in ``--seconds``.
SETUP_SAMPLES = 5

#: Host-speed sampling (``perfbench/hostspeed.py``): a grid pass samples
#: for ``PROBE_S`` after the first cell that ends at least
#: ``PROBE_EVERY_S`` after the last sample (about 4% of the pass), and a
#: set-up process samples ``SETUP_PROBES`` times once it is ready.
PROBE_S = 0.02
PROBE_EVERY_S = 0.5
SETUP_PROBES = 5

#: Seconds one unit of the host-speed probe takes on the reference host
#: (a typical figure on the 2-core Intel Xeon VM with Python 3.11 the
#: benchmark was built on).  It only fixes the scale of the rescaled
#: timings.
REFERENCE_UNIT_S = 3.2e-4

#: (code, p) groups the traced run's untraced baseline replays; the
#: traced pass runs the whole grid, and ``trace.overhead_ratio`` compares
#: the two on these groups only, which keeps a traced run short.
OVERHEAD_GROUPS = (("tip", 7), ("hdd1", 11), ("star", 13))

# -- advise-live ---------------------------------------------------------------

#: The served deployment is ``repro-fbf serve`` with its defaults: TIP
#: p=7, fifo/lru/lfu/arc/fbf x 2..64 MB (30 candidate cells), a 192-event
#: window and 24-event ingest batches.
SERVE_CODE = "tip"
SERVE_P = 7
WINDOW_EVENTS = 192
BATCH_EVENTS = 24

#: Nominal phase: one 24-event ingest batch and one ``advise`` per
#: period, the advise offset by half a period so that each one replays a
#: fresh window.  An advise costs about 36 ms of server time on a 2-core
#: Xeon VM whose host runs fast and about 70 ms (p95 about 90 ms) when it
#: runs slow, so this period keeps the server under half busy with
#: strictly periodic arrivals: no advise waits for another.
NOMINAL_PERIOD_S = 0.15

#: Advises in the nominal phase: 200 leaves 10 samples beyond the p95.
NOMINAL_ADVISES = 200

#: Latency limit on the advise p95 during the ingest ramp.  A ramp step
#: whose advise p95 exceeds it fails.
LATENCY_LIMIT_MS = 300.0

#: Ingest ramp: each step holds one ingest rate for this long while
#: advise stays at the nominal period.
RAMP_STEP_S = 1.5

#: First probed rate, as a multiple of the nominal ingest rate (10240
#: events/s; the capacity has been 7000-20000); the ramp doubles the
#: rate until a step fails, or halves it until one passes, then bisects
#: (geometrically) between the last passing and the first failing rate.
RAMP_START_FACTOR = 64.0

#: Bisection stops when failing/passing rates differ by less than this
#: ratio; the staircase below refines the estimate.
RAMP_RESOLUTION = 1.2

#: After the bisection the ramp walks a staircase: up by this factor after
#: a passing step, down after a failing one, for this many steps, and the
#: capacity is the geometric mean of the rates it held.  A step that sheds
#: nothing passes 85% of the time at 14500 events/s and 45% at 19600, so
#: one bisection's last passing rate spread 0.22-0.26 between quartiles
#: over ten seeds; a ten-step staircase's mean spread 0.05-0.09, a
#: six-step one's 0.13-0.19.
RAMP_STAIR_STEPS = 10
RAMP_STAIR_FACTOR = 1.1

#: Never probe above this rate (events/s).
RAMP_MAX_RATE = 60000.0

#: The ingest sender wakes this often and writes every event due.
SEND_TICK_S = 0.01

#: A ramp step fails when the staleness (events sent but not yet in the
#: advised window) of its last third of advises exceeds that of its first
#: third by more than this many periods' worth of events at the step's
#: rate, plus two batches: the backlog is growing.
STALENESS_GROWTH_PERIODS = 0.5

#: Server spawns per run for ``setup_s`` (spawn to first answered ping),
#: including the one that serves the run.  The load generator samples the
#: host's speed ``SETUP_PROBES`` times after each, while the server idles.
SERVER_SETUP_SAMPLES = 3

#: Host-speed sampling in advise-live, always on the server's CPU while
#: the server is idle: a quarter period after each ingest batch of the
#: nominal phase unless the previous advise is still unanswered, and
#: ``RAMP_PROBES`` times after each ramp step has settled.
RAMP_PROBES = 2

#: Advises in the traced run's untraced baseline, from which
#: ``trace.overhead_ratio`` compares server advise time.
OVERHEAD_ADVISES = 40

#: Seconds to wait for a server reply or a ramp step's settling.
REPLY_TIMEOUT_S = 10.0

#: Seconds a child recomputing advice offline may take.
RECOMPUTE_TIMEOUT_S = 120.0
