import os
import sys

from hypothesis import settings

# Make the shared oracle helpers importable regardless of pytest import mode.
sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run and keep no example
# database, so a run's verdict does not depend on its random draw or on a
# local .hypothesis/ directory.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
