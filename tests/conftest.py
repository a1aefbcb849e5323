import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def tables_asked(monkeypatch):
    """The (p, d) of every request for a field's log tables, from count
    and from geom, in order."""
    from k3cert import count, geom

    asked, tables = [], count.zech_tables
    for module in (count, geom):
        monkeypatch.setattr(module, "zech_tables", lambda ctx: asked.append(
            (ctx.p, ctx.d)) or tables(ctx))
    return asked
