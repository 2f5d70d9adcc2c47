"""Shared test settings: every hypothesis test draws the same examples on every
run, keeps no example database and has no deadline, since a pipeline example
takes a few tenths of a second.

hypothesis also caches the constants it reads from the source under its
storage directory, ``.hypothesis/`` by default, whatever the database; that
directory is a temporary one here, removed when the tests end, so a run
leaves nothing in the checkout.
"""

import atexit
import os
import shutil
import tempfile

from hypothesis import settings

_storage = tempfile.mkdtemp(prefix="depotsim-hypothesis-")
os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _storage
atexit.register(shutil.rmtree, _storage, True)

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
