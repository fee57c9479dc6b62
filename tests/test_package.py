from __future__ import annotations

import condctc


def test_every_exported_name_resolves_once():
    assert len(condctc.__all__) == len(set(condctc.__all__))
    for name in condctc.__all__:
        assert hasattr(condctc, name), name
