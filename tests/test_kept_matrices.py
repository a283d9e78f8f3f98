"""Only qcalc.fourier knows the kernel matrices its transforms keep.

The kept matrices are a decision of the transform: which window it
keeps, and when it lets go.  So under src/ and bench/ only
`src/qcalc/fourier.py` names their dict, `_KEPT`, or their format,
`KeptMatrix`, in code (as a name, an attribute, an import or a string);
the kernel store of qcalc.special keeps kernel values only.  Tests may
read the dict freely.
"""

import ast

from test_reachable import ROOT, _uses

NAMES = {"_KEPT", "KeptMatrix"}


def test_only_fourier_names_the_kept_matrices():
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    naming = sorted(str(path.relative_to(ROOT)) for path in files
                    if NAMES & set(_uses(ast.parse(path.read_text()))))
    assert naming == ["src/qcalc/fourier.py"]
