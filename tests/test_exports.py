"""The names ``categraph`` exports: a name dropped from the package but
left in ``__all__``, or imported but not listed, must fail here."""
import inspect

import categraph


def test_all_lists_each_public_name_once_and_every_name_resolves():
    names = categraph.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(categraph, name)] == []
    public = {name for name, value in vars(categraph).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(names)
    star = {}
    exec("from categraph import *", star)
    assert set(star) - {"__builtins__"} == set(names)
