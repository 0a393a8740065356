"""The public value classes' contract: construction by keyword and by
position with the same defaults, == and hash over the compared fields only,
immutability, and reprs fixed to the literals below."""

from fractions import Fraction

import pytest

from symbio.cli import Scenario
from symbio.coordination import CoordinatedGame, Policy
from symbio.exchange import ExchangePlan, ExchangeScenario, ResourceStream, Shipment
from symbio.games import ISNGame
from symbio.lp import LPResult
from symbio.mcnets import MCNet, MCNetRule
from symbio.solutions import CoreResult

GAME = ISNGame(2, (0, 0, 0, 3), 2)
RULE = MCNetRule(frozenset({0, 1}), frozenset({2}), Fraction(1, 2))
OFFER = ResourceStream(0, "steam", "offer", Fraction(3), Fraction(1, 2))
DEMAND = ResourceStream(1, "steam", "demand", Fraction(2), None, Fraction(5), Fraction(1))
SHIPMENT = Shipment(0, 1, "steam", Fraction(3))

#: (class, every constructor argument by name in constructor order, other
#: values of the arguments == and hash ignore, other values of one they read,
#: the repr)
CASES = [
    (Scenario,
     {"agents": ("A", "B"), "game": GAME, "policy": None, "source": "tables",
      "keys": ["", "A", "B", "A,B"]},
     {"keys": ["", "a", "b", "a,b"]},
     {"source": "exchange"},
     "Scenario(agents=('A', 'B'), game=ISNGame(n_agents=2, scaled=(0, 0, 0, 3), denominator=2), "
     "policy=None, source='tables')"),
    (ISNGame,
     {"n_agents": 2, "scaled": (0, 0, 0, 3), "denominator": 2},
     {},
     {"denominator": 4},
     "ISNGame(n_agents=2, scaled=(0, 0, 0, 3), denominator=2)"),
    (CoreResult,
     {"nonempty": False, "witness": None, "weights": ((frozenset({0}), Fraction(1)),)},
     {"weights": None},
     {"nonempty": True},
     "CoreResult(nonempty=False, witness=None, weights=((frozenset({0}), Fraction(1, 1)),))"),
    (LPResult,
     {"status": "optimal", "x": ((1, 2),), "objective": (3, 4), "dual": ((5, 6),),
      "dictionary": None},
     {"dual": None, "dictionary": "a dictionary"},
     {"objective": (3, 5)},
     "LPResult(status='optimal', x=((1, 2),), objective=(3, 4), dual=((5, 6),))"),
    (MCNetRule,
     {"positive": frozenset({0, 1}), "negative": frozenset({2}), "value": Fraction(1, 2)},
     {},
     {"value": Fraction(1, 3)},
     "MCNetRule(positive=frozenset({0, 1}), negative=frozenset({2}), value=Fraction(1, 2))"),
    (MCNet,
     {"n_agents": 3, "rules": (RULE,)},
     {},
     {"n_agents": 4},
     "MCNet(n_agents=3, rules=(MCNetRule(positive=frozenset({0, 1}), negative=frozenset({2}), "
     "value=Fraction(1, 2)),))"),
    (Policy,
     {"promoted": (frozenset({0, 1}),), "prohibited": (frozenset({1, 2}),)},
     {},
     {"prohibited": ()},
     "Policy(promoted=(frozenset({0, 1}),), prohibited=(frozenset({1, 2}),))"),
    (CoordinatedGame,
     {"base": GAME, "incentives": MCNet(2, ())},
     {},
     {"incentives": MCNet(2, (MCNetRule({0, 1}, (), 1),))},
     "CoordinatedGame(base=ISNGame(n_agents=2, scaled=(0, 0, 0, 3), denominator=2), "
     "incentives=MCNet(n_agents=2, rules=()))"),
    (ResourceStream,
     {"firm": 0, "resource": "steam", "kind": "offer", "quantity": Fraction(3),
      "unit_discharge_cost": Fraction(1, 2), "unit_purchase_cost": None,
      "unit_treatment_cost": None},
     {},
     {"quantity": Fraction(4)},
     "ResourceStream(firm=0, resource='steam', kind='offer', quantity=Fraction(3, 1), "
     "unit_discharge_cost=Fraction(1, 2), unit_purchase_cost=None, unit_treatment_cost=None)"),
    (Shipment,
     {"from_firm": 0, "to_firm": 1, "resource": "steam", "quantity": Fraction(3)},
     {},
     {"to_firm": 2},
     "Shipment(from_firm=0, to_firm=1, resource='steam', quantity=Fraction(3, 1))"),
    (ExchangePlan,
     {"shipments": (SHIPMENT,)},
     {},
     {"shipments": ()},
     "ExchangePlan(shipments=(Shipment(from_firm=0, to_firm=1, resource='steam', "
     "quantity=Fraction(3, 1)),))"),
    (ExchangeScenario,
     {"n_agents": 2, "streams": (OFFER, DEMAND), "transport": {(0, 1, "steam"): 1},
      "transaction": {(0, 1): 2}},
     {},
     {"transaction": {(0, 1): 3}},
     "ExchangeScenario(n_agents=2, streams=(ResourceStream(firm=0, resource='steam', "
     "kind='offer', quantity=Fraction(3, 1), unit_discharge_cost=Fraction(1, 2), "
     "unit_purchase_cost=None, unit_treatment_cost=None), ResourceStream(firm=1, "
     "resource='steam', kind='demand', quantity=Fraction(2, 1), unit_discharge_cost=None, "
     "unit_purchase_cost=Fraction(5, 1), unit_treatment_cost=Fraction(1, 1))), "
     "transport={(0, 1, 'steam'): Fraction(1, 1)}, transaction={(0, 1): Fraction(2, 1)})"),
]


@pytest.mark.parametrize("cls, kwargs, ignored, changed, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_contract(cls, kwargs, ignored, changed, text):
    record = cls(**kwargs)
    assert cls(*kwargs.values()) == record
    assert repr(record) == text
    same, other = cls(**{**kwargs, **ignored}), cls(**{**kwargs, **changed})
    assert same == record and other != record and record != text
    if cls is ExchangeScenario:  # its cost tables are dicts
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(same) == hash(record)
    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(record, name, kwargs[name])
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == text


def test_defaults():
    assert LPResult("unbounded") == LPResult("unbounded", None, None, None, None)
    assert repr(LPResult("unbounded")) == "LPResult(status='unbounded', x=None, objective=None, dual=None)"
    assert CoreResult(True) == CoreResult(True, None, None)
    assert Policy() == Policy((), ())
    assert ISNGame(2, (0, 0, 0, 1)) == ISNGame(2, (0, 0, 0, 1), 1)
    assert ResourceStream(0, "r", "offer", 1, 2) == ResourceStream(0, "r", "offer", 1, 2, None, None)


def test_cached_table_takes_no_part():
    """`table` is cached on the instance, outside ==, hash and repr."""
    game = ISNGame(2, (0, 0, 0, 3), 2)
    coordinated = CoordinatedGame(game, MCNet(2, ()))
    for record in game, coordinated:
        text, key = repr(record), hash(record)
        assert record.table == (0, 0, 0, Fraction(3, 2))
        assert record.table is record.table
        assert repr(record) == text and hash(record) == key
    assert game == ISNGame(2, (0, 0, 0, 3), 2)
