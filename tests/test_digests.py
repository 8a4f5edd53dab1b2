"""The integer-only report digests of scripts/report_digests.py against the
checked-in scripts/digests.txt.

Set listings, the exact Riesz expansion and the lift check are pure integer
and exact-rational work, so their report bytes do not depend on the machine.
The replay, campaign and measure lines sum floats through the BLAS build, so
they are compared by hand with `report_digests.py --check`.
"""

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_integer_report_digests_match_checked_in_file():
    spec = importlib.util.spec_from_file_location("report_digests", SCRIPTS / "report_digests.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    want = {name: sha for name, sha in mod.read_digests(SCRIPTS / "digests.txt").items()
            if name.startswith("sets-") or name in ("riesz", "lift")}
    assert len(want) == 13
    assert mod.digests(want) == want
