"""Scenario configuration: JSON documents and the 11 built-in line cases.

The built-in presets are a 9-node line of 8 links with two overlapping
flows; variants change capacities, loss rates, or the flow link sets.
Bursty presets replace each independent loss rate by a two-state channel
with the same average loss.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

from .loss import LossSpec, ParameterError
from .netmodel import (Flow, Link, Network, ValidationError,
                       all_collision_interference, two_hop_interference)
from .solvers import LossModelOptions, Scenario, SolverConfig

# two-state channel parameters reproducing average loss 0.1 / 0.2 / 0.4
GE_BY_LOSS_RATE = {
    0.1: (1.0, 0.8, 1e-3, 1e-3),
    0.2: (1.0, 0.6, 1e-3, 1e-3),
    0.4: (0.8, 0.4, 1e-3, 1e-3),
}

PRESET_NAMES = tuple(f"case{n}" for n in range(1, 12))


def _line_case(n, loss_family):
    flows_links = {
        9: ([1, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 7, 8]),
        10: ([1, 2, 3, 4, 5, 6, 7, 8], [3, 4, 5, 6, 7, 8]),
        11: ([1, 2, 3, 4, 5, 6, 7, 8], [3, 4, 5, 6]),
    }.get(n, ([1, 2, 3, 4, 5], [3, 4, 5, 6, 7, 8]))
    eps = {i: 0.2 for i in range(1, 9)}
    cap = {i: 1.0 for i in range(1, 9)}
    if n == 2:
        cap.update({3: 2.0, 4: 2.0, 5: 2.0})
    elif n == 3:
        cap.update({i: 0.5 for i in (1, 2, 6, 7, 8)})
    elif n == 4:
        cap.update({i: 0.25 for i in (1, 2, 6, 7, 8)})
    elif n == 5:
        eps.update({3: 0.1, 4: 0.1, 5: 0.1})
    elif n == 6:
        eps.update({3: 0.1, 7: 0.1})
    elif n == 7:
        eps.update({i: 0.1 for i in (1, 2, 6, 7, 8)})
    elif n == 8:
        eps.update({i: 0.4 for i in (1, 2, 6, 7, 8)})

    def loss_of(e):
        if loss_family == "iid":
            return {"kind": "independent", "epsilon": eps[e]}
        sg, sb, pgb, pbg = GE_BY_LOSS_RATE[eps[e]]
        return {"kind": "gilbert_elliott", "s_good": sg, "s_bad": sb,
                "p_gb": pgb, "p_bg": pbg}

    return {
        "name": f"case{n}-{loss_family}",
        "nodes": [f"v{i}" for i in range(9)],
        "links": [
            {"id": f"e{i}", "from": f"v{i-1}", "to": f"v{i}",
             "capacity": cap[i], "loss": loss_of(i)}
            for i in range(1, 9)
        ],
        "interference": "two-hop",
        "flows": [
            {"id": "f1", "links": [f"e{i}" for i in flows_links[0]],
             "batch_size": 16},
            {"id": "f2", "links": [f"e{i}" for i in flows_links[1]],
             "batch_size": 16},
        ],
        "code": {"field_size": 256, "batch_size": 16, "m0_factor": 10},
        "seeds": {"loss_model": 1},
    }

def preset_config(name, loss_family="iid"):
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown preset {name!r}; known: {PRESET_NAMES}")
    if loss_family not in ("iid", "ge"):
        raise ValidationError(f"loss family must be iid or ge, got {loss_family!r}")
    return _line_case(int(name[4:]), loss_family)


# The bounds keep a solve from failing: m0 = m0_factor * batch_size and
# m_max stay at most 1,024, below where a binomial loss table overflows a
# float (m = 1,031), and outside the capacity window the allocation's
# interior-point method stops on its absolute tolerances (README).
NAME = ("name",)
PROBABILITY = ("number", float, 0.0, 1.0)

INTERFERENCE = {"two-hop": two_hop_interference,
                "all": all_collision_interference, "none": lambda net: {}}

_CODE = {"field_size": Scenario.q, "batch_size": Scenario.M, "m0_factor": 10}
_LOSS_MODEL = {"m_max": LossModelOptions.m_max,
               "samples": LossModelOptions.samples}
_SEEDS = {"loss_model": LossModelOptions.seed}
_SOLVER = dataclasses.asdict(SolverConfig())

SCHEMA = ("object", {
    "name": NAME,
    "nodes": ("list", NAME, 1),
    "links": ("list", ("object", {
        "id": NAME, "from": NAME, "to": NAME,
        "capacity": ("number", float, 0.2, 100.0),
        "loss": ("tagged", "kind", {
            "independent": {"epsilon": PROBABILITY},
            "gilbert_elliott": dict.fromkeys(
                ("s_good", "s_bad", "p_gb", "p_bg"), PROBABILITY)}),
    }, {}), 1),
    "interference": ("either", ("enum", tuple(INTERFERENCE)),
                     ("map", ("list", NAME, 0))),
    "flows": ("list", ("object", {
        "id": NAME, "links": ("list", NAME, 1),
        "batch_size": ("number", int, 1, 64),
    }, {"id": None, "batch_size": None}), 1),
    "code": ("object", {
        "field_size": ("number", int, 2, 2 ** 16),
        "batch_size": ("number", int, 1, 64),
        "m0_factor": ("number", int, 1, 16),
    }, _CODE),
    "loss_model": ("object", {
        "m_max": ("number", int, 1, 1024),
        "samples": ("number", int, 1, 100_000),
    }, _LOSS_MODEL),
    "seeds": ("object", {"loss_model": ("number", int, 0, 2 ** 64 - 1)},
              _SEEDS),
    "solver": ("object", dict.fromkeys(
        _SOLVER, ("number", int, 0, 100_000)), _SOLVER),
}, {"name": Scenario.name, "interference": "two-hop", "code": _CODE,
    "loss_model": _LOSS_MODEL, "seeds": _SEEDS, "solver": _SOLVER})


def _check(value, spec, path):
    """`value` checked against `spec`, a kind named by its first item, with
    an object's missing keys set to their defaults (None leaves the key to
    the builder); a ValidationError names `path`."""
    def fail(message):
        raise ValidationError(f"{path or 'scenario'}: {message}")

    kind = spec[0]
    if kind == "name":  # a string, or a finite number read as one
        if (isinstance(value, bool) or not isinstance(value, (str, int, float))
                or isinstance(value, float) and not math.isfinite(value)):
            fail(f"expected a name, got {value!r}")
        return str(value)
    if kind == "number":
        want, lo, hi = spec[1:]
        if want is int and isinstance(value, float) and value.is_integer():
            value = int(value)
        if (isinstance(value, bool) or not isinstance(value, (want, int))
                or not lo <= value <= hi):
            fail(f"expected {want.__name__} in [{lo}, {hi}], got {value!r}")
        return want(value)
    if kind == "enum":
        if value not in spec[1]:
            fail(f"expected one of {spec[1]}, got {value!r}")
        return value
    if kind == "either":  # the second kind for an object, else the first
        return _check(value, spec[2 if isinstance(value, dict) else 1], path)
    if kind == "list":
        item, least = spec[1:]
        if not isinstance(value, list) or len(value) < least:
            fail(f"expected a list of at least {least} items, got {value!r}")
        return [_check(x, item, f"{path}[{i}]") for i, x in enumerate(value)]
    if not isinstance(value, dict):
        fail(f"expected an object, got {value!r}")
    if kind == "map":
        return {k: _check(v, spec[1], f"{path}.{k}") for k, v in value.items()}
    if kind == "tagged":  # value[tag] picks the fields of the object
        tag, variants = spec[1:]
        choice = value.get(tag)
        if not isinstance(choice, str) or choice not in variants:
            fail(f"unknown {tag} {choice!r}")
        return _check(value, ("object", {tag: ("enum", (choice,)),
                                         **variants[choice]}, {}), path)
    fields, defaults = spec[1:]
    unknown = set(value) - set(fields)
    if unknown:
        fail(f"unknown fields {sorted(unknown)}")
    for key in fields:
        if key not in value and key not in defaults:
            fail(f"missing field {key!r}")
    return {**defaults, **{k: _check(v, fields[k], f"{path}.{k}" if path else k)
                           for k, v in value.items()}}


def scenario_from_config(doc):
    """Validate a configuration dict and build a Scenario."""
    doc = _check(doc, SCHEMA, "")
    links = []
    for i, ld in enumerate(doc["links"]):
        params = dict(ld["loss"])
        try:
            loss = getattr(LossSpec, params.pop("kind"))(**params)
        except ParameterError as e:
            raise ValidationError(f"links[{i}].loss: {e}") from None
        links.append(Link(id=ld["id"], tail=ld["from"], head=ld["to"],
                          capacity=ld["capacity"], loss=loss))
    net = Network(nodes=doc["nodes"], links=links)
    inter = doc["interference"]
    net.interference = (INTERFERENCE[inter](net) if isinstance(inter, str)
                        else {e: frozenset(v) for e, v in inter.items()})
    net.__post_init__()  # re-validate with the final interference sets
    code = doc["code"]
    M, q = code["batch_size"], code["field_size"]
    p = next(d for d in range(2, q + 1) if q % d == 0)  # q's least prime
    if p ** round(math.log(q, p)) != q:
        raise ValidationError(f"code.field_size: {q} is not a prime power")
    flows = []
    for i, fd in enumerate(doc["flows"]):
        if fd["batch_size"] not in (None, M):
            raise ValidationError(f"flows[{i}]: batch_size {fd['batch_size']!r}"
                                  f" differs from code.batch_size {M}")
        fid = f"f{i + 1}" if fd["id"] is None else fd["id"]
        if fid in {f.id for f in flows}:
            raise ValidationError(f"flows[{i}].id: duplicate flow id {fid!r}")
        try:
            flow = Flow(id=fid, batch_size=M, links=tuple(fd["links"]))
            flow.validate_against(net)
        except ValidationError as e:
            raise ValidationError(f"flows[{i}]: {e}") from None
        flows.append(flow)
    return Scenario(
        network=net, flows=flows, q=q, M=M, m0=code["m0_factor"] * M,
        loss_options=LossModelOptions(**doc["loss_model"],
                                      seed=doc["seeds"]["loss_model"]),
        solver=SolverConfig(**doc["solver"]), name=doc["name"])


def scenario_to_config(scenario):
    """Inverse of scenario_from_config for the fields it consumes."""
    def loss_doc(spec):
        if spec.kind == "independent":
            return {"kind": "independent", "epsilon": spec.epsilon}
        return {"kind": spec.kind, **dataclasses.asdict(spec.ge)}

    return {
        "name": scenario.name,
        "nodes": list(scenario.network.nodes),
        "links": [
            {"id": l.id, "from": l.tail, "to": l.head, "capacity": l.capacity,
             "loss": loss_doc(l.loss)}
            for l in scenario.network.links
        ],
        "interference": {e: sorted(v)
                         for e, v in scenario.network.interference.items()},
        "flows": [
            {"id": f.id, "links": list(f.links), "batch_size": f.batch_size}
            for f in scenario.flows
        ],
        "code": {"field_size": scenario.q, "batch_size": scenario.M,
                 "m0_factor": scenario.m0 // scenario.M},
        "loss_model": {"m_max": scenario.loss_options.m_max,
                       "samples": scenario.loss_options.samples},
        "seeds": {"loss_model": scenario.loss_options.seed},
        "solver": dataclasses.asdict(scenario.solver),
    }


def load_scenario(source, loss_family="iid"):
    """Scenario from a preset name ('case1'..'case11') or a JSON file path."""
    if isinstance(source, str) and source in PRESET_NAMES:
        return scenario_from_config(preset_config(source, loss_family))
    if isinstance(source, dict):
        return scenario_from_config(source)
    if not os.path.exists(source):
        raise ValidationError(f"no such preset or file: {source!r}")
    try:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        raise ValidationError(f"{source}: not a JSON document ({e})") from None
    return scenario_from_config(doc)
