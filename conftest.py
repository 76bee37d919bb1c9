"""Loaded by every pytest run in this checkout, ``tests`` and ``bench`` alike."""

import os
import sys

# Neither this process nor the CLI children it starts write bytecode under
# ``src/`` or ``bench/``: a later benchmark run in this checkout would skip
# compiling them.  This file is compiled before it runs, so only
# PYTHONDONTWRITEBYTECODE=1 in the calling environment keeps its own cache.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
