"""The contract of the validated input types `Place`, `BaseField`,
`AlgebraSpec` and `OrderSpec`: immutable, checked at construction, equal
and hashed by value.  Every way to build one runs the checks, which raise
`ValidationError` with fixed messages, the first failing check first."""

from __future__ import annotations

import copy
import inspect
import pickle
import random
import re

import pytest

from csaclass import AlgebraSpec, BaseField, OrderSpec, Place
from csaclass.errors import ValidationError


def spec_args(base=None):
    return (base or BaseField(3), 4, (Place("T", 1, 4, 1), Place("U", 2)), -1)


def values():
    """(type, constructor arguments) of one value of each type, with data
    that construction normalises: a list, a rotated vector."""
    spec = AlgebraSpec(*spec_args())
    return [
        (Place, ("T", 1, 4, 1)),
        (BaseField, (2, [1, -2, 2], 1)),
        (AlgebraSpec, spec_args(BaseField(2, [1, -2, 2]))),
        (OrderSpec, (spec, (("U", (2, 1, 1)),))),
    ]


IDS = [cls.__name__ for cls, _ in values()]


@pytest.mark.parametrize("cls,args", values(), ids=IDS)
def test_attributes_cannot_be_assigned(cls, args):
    value = cls(*args)
    for name in [*inspect.signature(cls).parameters, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("cls,args", values(), ids=IDS)
def test_equal_data_gives_equal_values_and_hashes(cls, args):
    one, two = cls(*args), cls(*args)
    assert one == two and hash(one) == hash(two)
    for other in (copy.copy(one), copy.deepcopy(one),
                  pickle.loads(pickle.dumps(one))):
        assert type(other) is cls and other == one
        assert hash(other) == hash(one)


def test_construction_normalises_before_comparing():
    assert BaseField(3, [1]) == BaseField(3)
    assert hash(BaseField(3, [1])) == hash(BaseField(3))
    spec = AlgebraSpec(*spec_args())
    assert AlgebraSpec(spec.base, 4, list(spec.finite_places), -1) == spec
    rotated = [OrderSpec(spec, (("U", f),)) for f in ((1, 1, 2), (2, 1, 1))]
    assert rotated[0] == rotated[1] and hash(rotated[0]) == hash(rotated[1])
    # A vector equal to the maximal one is dropped.
    assert OrderSpec(spec, (("U", (4,)),)) == OrderSpec(spec)


def test_infinity_is_derived_and_not_given():
    spec = AlgebraSpec(*spec_args())
    assert spec.infinity == Place("infinity", 1, 4, -1)
    with pytest.raises(TypeError):
        AlgebraSpec(*spec_args(), Place("infinity", 1, 4, -1))
    # Rebuilding from the given fields derives infinity again.
    assert spec._replace(infinity=None) == spec
    assert spec._replace(infinity_invariant=1).infinity == Place(
        "infinity", 1, 4, 1)


# One field of each type, and a value its check refuses.
BAD_FIELD = {Place: ("degree", 0), BaseField: ("q", 6),
             AlgebraSpec: ("degree", 0),
             OrderSpec: ("invariants", (("X", (1,)),))}


@pytest.mark.parametrize("cls,args", values(), ids=IDS)
def test_make_and_replace_run_the_checks(cls, args):
    value = cls(*args)
    assert cls._make(args) == value and value._replace() == value
    name, bad = BAD_FIELD[cls]
    fields = dict(zip(value._fields, value), **{name: bad})
    with pytest.raises(ValidationError) as direct:
        cls(*list(fields.values())[:len(args)])
    message = f"^{re.escape(str(direct.value))}$"
    with pytest.raises(ValidationError, match=message):
        cls._make(fields.values())
    with pytest.raises(ValidationError, match=message):
        value._replace(**{name: bad})


# Each bad argument list and its message; with several faults, the check
# that runs first names its fault.
MESSAGES = [
    (Place, ("v", 0), "place 'v': degree must be positive"),
    (Place, ("v", 0, 0), "place 'v': degree must be positive"),
    (Place, ("v", 1, 0), "place 'v': local index must be positive"),
    (Place, ("v", 1, 0, 2), "place 'v': local index must be positive"),
    (Place, ("v", 1, 4, 2), "place 'v': gcd(kappa, d) = 2 != 1"),
    (Place, ("v", 1, 2, 0), "place 'v': gcd(kappa, d) = 2 != 1"),
    (BaseField, (6,), "q = 6 is not a prime power"),
    (BaseField, (1,), "q = 1 is not a prime power"),
    (BaseField, (6, (), 0), "q = 6 is not a prime power"),
    (BaseField, (3, (), 0), "infinity_degree must be positive"),
    (BaseField, (3, ()), "l_poly must have constant term 1"),
    (BaseField, (3, (2, 0, 6)), "l_poly must have constant term 1"),
    (BaseField, (3, (1, 1)), "l_poly must have even degree 2g"),
    (AlgebraSpec, (BaseField(3), 0), "algebra degree must be positive"),
    (AlgebraSpec, (BaseField(3, (1, -5, 3)), 0),
     "algebra degree must be positive"),
    (AlgebraSpec, (BaseField(3, (1, -5, 3)), 4, (), 2),
     "l_polynomial has P(1) = -1, but P(1) = h_K >= 1"),
    (AlgebraSpec, (BaseField(3), 4, (Place("T", 1, 3),), 2),
     "place 'infinity': gcd(kappa, d) = 2 != 1"),
    (AlgebraSpec, (BaseField(3), 4, (Place("T", 1, 3), Place("T", 1, 3))),
     "place 'T': local index 3 does not divide degree 4"),
    (AlgebraSpec, (BaseField(3), 4, (Place("T", 1), Place("T", 2))),
     "place labels are not distinct"),
    (AlgebraSpec, (BaseField(3), 4, (Place("infinity", 1),)),
     "place labels are not distinct"),
    (OrderSpec, (AlgebraSpec(*spec_args()), (("U", (2, 2)), ("U", (2, 2)))),
     "duplicate invariant for place 'U'"),
    (OrderSpec, (AlgebraSpec(*spec_args()), (("X", (1,)), ("X", (1,)))),
     "invariant given for unlisted place 'X'; list it on the algebra first"),
    (OrderSpec, (AlgebraSpec(*spec_args()), (("infinity", ()),)),
     "no order invariant at infinity"),
    (OrderSpec, (AlgebraSpec(*spec_args()), (("U", ()),)),
     "invariant vector must be non-empty"),
    (OrderSpec, (AlgebraSpec(*spec_args()), (("U", (3, -1)),)),
     "place 'U': invariant entries must be positive"),
    (OrderSpec, (AlgebraSpec(*spec_args()), (("U", (2, 1)),)),
     "place 'U': invariant sums to 3, expected 4"),
    (OrderSpec, (AlgebraSpec(*spec_args()), (("U", (2, 1)), ("X", (1,)))),
     "place 'U': invariant sums to 3, expected 4"),
]


@pytest.mark.parametrize("cls,args,message", MESSAGES)
def test_validation_messages(cls, args, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        cls(*args)


def seeded_bad_arguments(seed: int):
    """Bad arguments with random labels and numbers, and their messages."""
    rng = random.Random(seed)
    label = "".join(rng.choice("TUVX+12") for _ in range(rng.randint(1, 4)))
    d = rng.randint(2, 9)
    kappa = d * rng.randint(-3, 3)
    q = rng.choice([6, 10, 12, 15, 18, 20, 21, 0, -4])
    n = d * rng.randint(1, 3)
    spec = AlgebraSpec(BaseField(5), n, (Place(label, 1, d, 1),))
    m = n // d
    return [
        (Place, (label, rng.randint(-5, 0), d), f"place {label!r}: degree "
         "must be positive"),
        (Place, (label, 1, rng.randint(-5, 0)), f"place {label!r}: local "
         "index must be positive"),
        (Place, (label, 1, d, kappa), f"place {label!r}: gcd(kappa, d) = "
         f"{d} != 1"),
        (BaseField, (q,), f"q = {q} is not a prime power"),
        (AlgebraSpec, (BaseField(5), d + 1, (Place(label, 1, d),)),
         f"place {label!r}: local index {d} does not divide degree {d + 1}"),
        (OrderSpec, (spec, ((label, (m, 1)),)), f"place {label!r}: invariant "
         f"sums to {m + 1}, expected {m}"),
    ]


@pytest.mark.parametrize("seed", range(20))
def test_seeded_validation_messages(seed):
    for cls, args, message in seeded_bad_arguments(seed):
        with pytest.raises(ValidationError) as caught:
            cls(*args)
        assert str(caught.value) == message
