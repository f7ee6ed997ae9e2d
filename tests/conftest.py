import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# property tests draw the same examples on every run and stay bounded in time
settings.register_profile("helmlab", derandomize=True, deadline=None,
                          database=None,
                          max_examples=20)
settings.load_profile("helmlab")
