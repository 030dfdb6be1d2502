"""Entry point for ``python -m repro``.

The process runs one command and exits, so (like mypy) it fixes its GC
policy: a raised generation-0 threshold, since a network build allocates
~10^5 containers that all live until exit, and ``gc.freeze()`` so that
shutdown does not traverse them again.  ``repro serve`` keeps the
defaults; in-process ``repro.cli.main()`` callers are untouched.  Exit
is ``sys.exit``, never ``os._exit``, so atexit handlers still run
(multiprocessing reaps its spawned workers there).  A reader that
closes stdout early ends the process with status 1 and no traceback
(the Python docs' SIGPIPE recipe).
"""

import gc
import os
import sys

from .cli import main

one_shot = sys.argv[1:2] != ["serve"]
if one_shot:
    gc.set_threshold(200_000, 30, 30)
try:
    status = main()
    sys.stdout.flush()
except BrokenPipeError:
    # Python flushes stdout once more at exit; send that flush to devnull.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    status = 1
if one_shot:
    gc.freeze()
sys.exit(status)
