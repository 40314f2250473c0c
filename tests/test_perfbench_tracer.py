"""The benchmark's layer tracer (perfbench/tracer.py) rebinds package names by
attribute; a rename or deletion of one of them breaks `perfbench/run.py
--trace 1`, so it must fail here too."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    targets = tracer.rebinding_targets()
    assert targets
    originals = {(owner, attr): vars(owner).get(attr) for owner, attr in targets}
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for (owner, attr), fn in originals.items() if fn is None]
    assert not missing, f"the tracer rebinds names the package lacks: {missing}"

    t = tracer.Tracer()
    t.install()
    try:
        rebound = [vars(owner)[attr] is not fn for (owner, attr), fn in originals.items()]
    finally:
        t.restore()
    assert all(rebound)
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())
