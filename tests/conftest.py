"""Settings shared by every test module."""

import os

# pyproject's ``pythonpath`` puts ``src`` on the test process's path; the
# Python children a test starts (a grid-search scoring command) need it on
# theirs as well.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
