import sys
from pathlib import Path

# the helpers under test import the program from the sources next to them
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
