"""Field-limited re-pinning for the JSON fixtures under ``tests/data``.

A pinned fixture maps field names to values (``flat``) or scenario names
to such maps (``scenarios``).  A change that is meant to move some
fields re-pins exactly those, by name: :func:`write_fixture` prints
every field of a fresh snapshot against the committed fixture, and
writes only the named fields; it refuses to write when any other field
changed too.
"""

import json
import sys


def field_diff(pinned, fresh):
    """``(field, old, new)`` for every field of either snapshot, in
    order; ``old == new`` where the field did not change."""
    fields = list(pinned) + [f for f in fresh if f not in pinned]
    return [(f, pinned.get(f), fresh.get(f)) for f in fields]


def updated_fixture(pinned, fresh, fields):
    """The fixture with ``fields`` taken from ``fresh``; ``ValueError``
    if a field is unknown or any other field changed."""
    unknown = sorted(set(fields) - set(fresh))
    if unknown:
        raise ValueError(f"unknown field(s): {', '.join(unknown)}")
    others = [
        f for f, old, new in field_diff(pinned, fresh)
        if old != new and f not in fields
    ]
    if others:
        raise ValueError(f"other field(s) changed: {', '.join(others)}")
    return {**pinned, **{f: fresh[f] for f in fields}}


def updated_scenarios(pinned, fresh, fields):
    """:func:`updated_fixture` per scenario: each scenario takes the
    named fields it has.  ``ValueError`` if the scenario set changed, a
    field is in no scenario, or any other field of any scenario
    changed."""
    if set(pinned) != set(fresh):
        raise ValueError("the scenario set changed")
    unknown = sorted(
        set(fields) - {f for snap in fresh.values() for f in snap}
    )
    if unknown:
        raise ValueError(f"unknown field(s): {', '.join(unknown)}")
    update = {}
    for name in pinned:
        snap = fresh[name]
        try:
            update[name] = updated_fixture(
                pinned[name], snap, [f for f in fields if f in snap]
            )
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return update


def write_fixture(fixture, snapshot, argv, scenarios=False):
    """The ``--write FIELD...`` command line of a pinned test: compare
    ``snapshot()`` with ``fixture`` field by field, and write the named
    fields (every scenario's, when ``scenarios``) if nothing else
    changed; a bare ``--write`` writes a new fixture whole."""
    fields = argv[1:]
    if argv[:1] != ["--write"] or not (fields or not fixture.exists()):
        sys.exit("usage: --write FIELD [FIELD ...]")
    fresh = snapshot()
    if not fixture.exists():
        fixture.write_text(json.dumps(fresh, indent=1) + "\n")
        print(f"wrote {fixture}")
        return
    pinned = json.loads(fixture.read_text())
    if scenarios:
        rows = [
            (f"{name}.{f}", old, new)
            for name in fresh
            for f, old, new in field_diff(pinned.get(name, {}), fresh[name])
        ]
        update_of = updated_scenarios
    else:
        rows = field_diff(pinned, fresh)
        update_of = updated_fixture
    for name, old, new in rows:
        print(f"{name}: {old!r}" + ("" if old == new else f" -> {new!r}"))
    try:
        update = update_of(pinned, fresh, fields)
    except ValueError as exc:
        sys.exit(f"not written: {exc}")
    fixture.write_text(json.dumps(update, indent=1) + "\n")
    print(f"wrote {', '.join(fields)} to {fixture}")
