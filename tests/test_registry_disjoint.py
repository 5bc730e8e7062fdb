"""Registry guard: every query family adds its names through
``queries.register``, which refuses a name that is already registered,
so a duplicated name can no longer silently replace an (often
driver-certified) query."""

import pytest

import pdf_oxide_ray.queries as q


def test_register_rejects_a_registered_name():
    name = next(iter(q.QUERIES))
    fn, sql = q.QUERIES[name], q.ORACLE_SQL.get(name)
    with pytest.raises(ValueError, match=name):
        q.register(name, lambda sf_dir: None, "SELECT 1")
    assert q.QUERIES[name] is fn and q.ORACLE_SQL.get(name) == sql


def test_registry_holds_every_family_once():
    assert len(q.QUERIES) == 286
    assert len(q.ORACLE_SQL) == 270
    assert set(q.ORACLE_SQL) <= set(q.QUERIES)
