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


def _number(value, path, kind=float, least=None):
    """`value` as a finite `kind`, at least `least`; a ValidationError names
    `path`. Booleans, and fractions where `kind` is int, are refused."""
    try:
        got = kind(value)
        ok = (not isinstance(value, bool) and math.isfinite(got)
              and not (isinstance(value, float) and got != value))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        want = "an integer" if kind is int else "a finite number"
        raise ValidationError(f"{path}: expected {want}, got {value!r}")
    if least is not None and got < least:
        raise ValidationError(f"{path}: {got} is below {least}")
    return got


def _typed(value, kind, path):
    """`value` if it is a `kind`; a ValidationError names `path` if not."""
    if not isinstance(value, kind):
        raise ValidationError(f"{path}: expected {kind.__name__}, got {value!r}")
    return value


def _name(value, path):
    """`value` as a name: a string, or a number made a string."""
    if not isinstance(value, (str, int, float)):
        raise ValidationError(f"{path}: expected a name, got {value!r}")
    return str(value)


def _names(value, path):
    """`value` as a list of names."""
    return [_name(x, f"{path}[{i}]")
            for i, x in enumerate(_typed(value, list, path))]


def _object(value, path, known):
    """`value` as a dict whose keys are all in `known`; a ValidationError
    names `path` if not."""
    bad = set(_typed(value, dict, path)) - set(known)
    if bad:
        raise ValidationError(f"{path}: unknown fields {sorted(bad)}")
    return value


def _section(doc, key, known):
    """doc[key] (default {}) as a dict whose keys are all in `known`."""
    return _object(doc.get(key, {}), key, known)


LOSS_FIELDS = {"independent": ("epsilon",),
               "gilbert_elliott": ("s_good", "s_bad", "p_gb", "p_bg")}


def _loss_spec(doc, path):
    kind = _typed(doc, dict, path).get("kind")
    if not isinstance(kind, str) or kind not in LOSS_FIELDS:
        raise ValidationError(f"{path}: unknown loss kind {kind!r}")
    _object(doc, path, ("kind",) + LOSS_FIELDS[kind])
    try:
        if kind == "independent":
            return LossSpec.independent(
                _number(doc["epsilon"], f"{path}.epsilon"))
        return LossSpec.gilbert_elliott(
            *(_number(doc[k], f"{path}.{k}") for k in LOSS_FIELDS[kind]))
    except KeyError as e:
        raise ValidationError(f"{path}: missing field {e}") from None
    except ParameterError as e:
        raise ValidationError(f"{path}: {e}") from None


LINK_FIELDS = ("id", "from", "to", "capacity", "loss")


def scenario_from_config(doc):
    """Validate a configuration dict and build a Scenario."""
    _object(doc, "scenario", ("name", "nodes", "links", "interference", "flows",
                              "code", "seeds", "loss_model", "solver"))
    for key in ("nodes", "links", "flows"):
        if key not in doc:
            raise ValidationError(f"missing top-level field {key!r}")
    links = []
    for i, ld in enumerate(_typed(doc["links"], list, "links")):
        path = f"links[{i}]"
        _object(ld, path, LINK_FIELDS)
        for key in LINK_FIELDS:
            if key not in ld:
                raise ValidationError(f"{path}: missing field {key!r}")
        links.append(Link(id=_name(ld["id"], f"{path}.id"),
                          tail=_name(ld["from"], f"{path}.from"),
                          head=_name(ld["to"], f"{path}.to"),
                          capacity=_number(ld["capacity"], f"{path}.capacity"),
                          loss=_loss_spec(ld["loss"], f"{path}.loss")))
    net = Network(nodes=_names(doc["nodes"], "nodes"), links=links)
    inter = doc.get("interference", "two-hop")
    if inter == "two-hop":
        net.interference = two_hop_interference(net)
    elif inter == "all":
        net.interference = all_collision_interference(net)
    elif inter == "none":
        net.interference = {l.id: frozenset() for l in links}
    elif isinstance(inter, dict):
        net.interference = {e: frozenset(_names(v, f"interference.{e}"))
                            for e, v in inter.items()}
    else:
        raise ValidationError("interference must be two-hop|all|none|mapping")
    net.__post_init__()  # re-validate with the final interference sets
    code = _section(doc, "code", ("field_size", "batch_size", "m0_factor"))
    M = _number(code.get("batch_size", 16), "code.batch_size", int, 1)
    flows = []
    for i, fd in enumerate(_typed(doc["flows"], list, "flows")):
        path = f"flows[{i}]"
        if "links" not in _object(fd, path, ("id", "links", "batch_size")):
            raise ValidationError(f"{path}: missing field 'links'")
        if fd.get("batch_size", M) != M:
            raise ValidationError(f"{path}: batch_size {fd['batch_size']!r} "
                                  f"differs from code.batch_size {M}")
        flow = Flow(id=_name(fd.get("id", f"f{i+1}"), f"{path}.id"),
                    batch_size=M,
                    links=tuple(_names(fd["links"], f"{path}.links")))
        if flow.id in {f.id for f in flows}:
            raise ValidationError(f"{path}.id: duplicate flow id {flow.id!r}")
        try:
            flow.validate_against(net)
        except ValidationError as e:
            raise ValidationError(f"{path}: {e}") from None
        flows.append(flow)
    seeds = _section(doc, "seeds", ("loss_model",))
    loss_doc = _section(doc, "loss_model", ("m_max", "samples"))
    opts = LossModelOptions(
        m_max=_number(loss_doc.get("m_max", 100), "loss_model.m_max", int, 1),
        samples=_number(loss_doc.get("samples", 10000), "loss_model.samples",
                        int, 1),
        seed=_number(seeds.get("loss_model", 1), "seeds.loss_model", int),
    )
    known = {f.name: type(f.default) for f in dataclasses.fields(SolverConfig)}
    solver_doc = _section(doc, "solver", known)
    solver = SolverConfig(**{k: _number(v, f"solver.{k}", known[k])
                             for k, v in solver_doc.items()})
    return Scenario(
        network=net, flows=flows,
        q=_number(code.get("field_size", 256), "code.field_size", int, 2), M=M,
        m0=_number(code.get("m0_factor", 10), "code.m0_factor", int, 1) * M,
        loss_options=opts, solver=solver,
        name=str(doc.get("name", "scenario")))


def scenario_to_config(scenario):
    """Inverse of scenario_from_config for the fields it consumes."""
    def loss_doc(spec):
        if spec.kind == "independent":
            return {"kind": "independent", "epsilon": spec.epsilon}
        return {"kind": "gilbert_elliott", "s_good": spec.ge.s_good,
                "s_bad": spec.ge.s_bad, "p_gb": spec.ge.p_gb,
                "p_bg": spec.ge.p_bg}

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
