"""Every record class behaves as the dataclass it stands in for: the same
constructor, repr, equality, hash and assignment rules
(`_oracles.reference_record` builds the dataclass)."""

from __future__ import annotations

import pytest

from weylgpd import arrangement, cartan, realization, subarr  # noqa: F401  (defines every record)
from weylgpd._record import Record

from _oracles import reference_record

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__qualname__)
MUTABLE = {"ChamberAtlas", "ExtractionResult", "LocalGraphResult", "Localization", "Realization", "Restriction"}
IDENTITY = {"IntegerFrame"}


def raised(action):
    """The type of the exception that calling `action` raises, or None."""
    try:
        action()
    except Exception as exc:  # compared by type between record and twin
        return type(exc)
    return None


def fields_of(cls) -> list:
    return list(vars(cls).get("__annotations__", {}))


def test_the_record_classes_and_their_flags():
    assert len(RECORDS) == 35
    assert {cls.__name__ for cls in RECORDS if cls.__setattr__ is object.__setattr__} == MUTABLE
    assert {cls.__name__ for cls in RECORDS if cls.__eq__ is object.__eq__} == IDENTITY


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_matches_its_dataclass_twin(cls):
    twin = reference_record(cls)
    fields = fields_of(cls)
    values = [("value", k) for k in range(len(fields))]
    others = [("other", k) for k in range(len(fields))]
    required = [name for name in fields if name not in vars(cls)]

    def both(*args, **kwargs):
        return cls(*args, **kwargs), twin(*args, **kwargs)

    pairs = [
        both(*values),
        both(**dict(zip(fields, values))),
        both(*values[:1], **dict(zip(fields[1:], values[1:]))),
        both(*values[: len(required)]),  # the defaulted fields from the class
    ]
    for record, reference in pairs:
        assert vars(record) == vars(reference)
        assert list(vars(record)) == fields
        assert repr(record) == repr(reference)

    record, reference = pairs[0]
    same, different = both(*values), both(*others)
    assert (record == same[0]) == (reference == same[1])
    assert (record != same[0]) == (reference != same[1])
    assert (record == different[0]) == (reference == different[1])
    assert record.__eq__(object()) is NotImplemented and reference.__eq__(object()) is NotImplemented
    if reference.__hash__ is None:
        assert raised(lambda: hash(record)) is TypeError
    elif cls.__name__ in IDENTITY:
        assert hash(record) == object.__hash__(record) and hash(reference) == object.__hash__(reference)
    else:
        assert hash(record) == hash(reference)

    for name in (*fields, "extra"):
        assert raised(lambda: setattr(record, name, "new")) is raised(lambda: setattr(reference, name, "new"))
        assert getattr(record, name, None) == getattr(reference, name, None)
        assert raised(lambda: delattr(record, name)) is raised(lambda: delattr(reference, name))

    for args, kwargs in (
        ((*values, "surplus"), {}),
        ((), {**dict(zip(fields, values)), "surplus": 1}),
        (tuple(values[: len(required) - 1]), {}),
        (tuple(values), dict(zip(fields[:1], values[:1]))),
    ):
        assert raised(lambda: cls(*args, **kwargs)) is raised(lambda: twin(*args, **kwargs))
