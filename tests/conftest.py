import os
import pathlib

import pytest

import gammagen


@pytest.fixture(autouse=True, scope="session")
def _child_pythons_import_this_gammagen():
    """The Python processes the tests start (``python -m gammagen``, and the
    import checks) import gammagen from where the tests do, so the suite
    runs from a bare checkout, where pytest puts ``src`` on sys.path."""
    src = str(pathlib.Path(gammagen.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield
