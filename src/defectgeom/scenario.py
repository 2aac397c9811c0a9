"""Scenario configuration: a single strict JSON document per run.

Unknown keys are errors and every complaint carries the JSON path of the
offending key, so a scenario file diff is always meaningful.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .defects import DefectConfiguration, DefectSpec, EDGE, SCREW, WEDGE
from .dynamics import (
    CROSS_PRODUCT,
    DERIVATION_CONSISTENT,
    DisclinationField,
    DisclinationSource,
    DislocationLine,
    DynamicsParams,
)
from .field_theory import Couplings
from .forms import GridSpec


class ScenarioError(Exception):
    """Configuration problem; the message names the offending key path."""


VALID_OUTPUTS = ("fields", "charges", "residuals", "trajectories", "events")


def _expect_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"{path}.{key}: missing required key")


def _number(obj, path):
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise ScenarioError(f"{path}: expected a number")
    try:
        value = float(obj)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{path}: expected a finite number")
    return value


def _integer(obj, path):
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise ScenarioError(f"{path}: expected an integer")
    return obj


def _vector(obj, path, length):
    if not isinstance(obj, list) or len(obj) != length:
        raise ScenarioError(f"{path}: expected a list of {length} numbers")
    try:
        return [_number(v, path) for v in obj]
    except ScenarioError:
        # name the entry; its path is built only for a bad list
        for i, v in enumerate(obj):
            _number(v, f"{path}[{i}]")
        raise


@dataclass
class Scenario:
    name: str
    grid: GridSpec
    defects: tuple
    couplings: Couplings
    outputs: tuple
    dynamics: Optional[DynamicsParams] = None
    lines: tuple = ()
    disclination_sources: tuple = ()
    reconnection_threshold: Optional[float] = None

    def configuration(self, resolution_scale: int = 1) -> DefectConfiguration:
        grid = self.grid if resolution_scale == 1 else \
            self.grid.refined(resolution_scale)
        return DefectConfiguration(grid, self.defects)

    def disclination_field(self) -> DisclinationField:
        sources = list(self.disclination_sources)
        if not sources:
            sources = [DisclinationSource(d.position, d.charge, d.core_radius)
                       for d in self.defects if d.kind == WEDGE]
        return DisclinationField(sources)


def parse_scenario(doc: dict) -> Scenario:
    _expect_keys(doc, "$", ("name", "grid", "defects", "couplings", "outputs"),
                 ("dynamics",))
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise ScenarioError("$.name: expected a nonempty string")

    gobj = doc["grid"]
    _expect_keys(gobj, "$.grid", ("extents", "resolution"))
    if not isinstance(gobj["extents"], list):
        raise ScenarioError("$.grid.extents: expected a list")
    extents = tuple(tuple(_vector(e, f"$.grid.extents[{i}]", 2))
                    for i, e in enumerate(gobj["extents"]))
    if not isinstance(gobj["resolution"], list):
        raise ScenarioError("$.grid.resolution: expected a list")
    resolution = tuple(_integer(n, f"$.grid.resolution[{i}]")
                       for i, n in enumerate(gobj["resolution"]))
    try:
        grid = GridSpec(extents, resolution)
    except ValueError as err:
        raise ScenarioError(f"$.grid: {err}") from err

    if not isinstance(doc["defects"], list):
        raise ScenarioError("$.defects: expected a list")
    defects = []
    for i, dobj in enumerate(doc["defects"]):
        path = f"$.defects[{i}]"
        _expect_keys(dobj, path, ("kind", "position", "charge", "core_radius"),
                     ("burgers_direction",))
        kind = dobj["kind"]
        if kind not in (SCREW, EDGE, WEDGE):
            raise ScenarioError(f"{path}.kind: must be screw, edge or wedge")
        direction = None
        if "burgers_direction" in dobj:
            direction = _vector(dobj["burgers_direction"],
                                f"{path}.burgers_direction", 2)
        try:
            defects.append(DefectSpec(
                kind=kind,
                position=_vector(dobj["position"], f"{path}.position", 2),
                charge=_number(dobj["charge"], f"{path}.charge"),
                core_radius=_number(dobj["core_radius"], f"{path}.core_radius"),
                burgers_direction=direction))
        except ValueError as err:
            raise ScenarioError(f"{path}: {err}") from err

    cobj = doc["couplings"]
    _expect_keys(cobj, "$.couplings", ("alpha", "beta", "gamma"),
                 ("kappa_u1", "lambda_u1"))
    try:
        couplings = Couplings(
            alpha=_number(cobj["alpha"], "$.couplings.alpha"),
            beta=_number(cobj["beta"], "$.couplings.beta"),
            gamma=_number(cobj["gamma"], "$.couplings.gamma"),
            kappa_u1=_number(cobj.get("kappa_u1", 0.0), "$.couplings.kappa_u1"),
            lambda_u1=_number(cobj.get("lambda_u1", 0.0),
                              "$.couplings.lambda_u1"))
    except ValueError as err:
        raise ScenarioError(f"$.couplings: {err}") from err

    if not isinstance(doc["outputs"], list):
        raise ScenarioError("$.outputs: expected a list")
    outputs = []
    for i, out in enumerate(doc["outputs"]):
        if out not in VALID_OUTPUTS:
            raise ScenarioError(f"$.outputs[{i}]: unknown product {out!r}")
        outputs.append(out)

    dynamics = None
    lines = ()
    sources = ()
    threshold = None
    if "dynamics" in doc:
        dyn = doc["dynamics"]
        _expect_keys(dyn, "$.dynamics", ("time_step", "steps", "lines"),
                     ("force_law", "external_force", "Gamma",
                      "disclination_sources", "reconnection_threshold"))
        law = dyn.get("force_law", CROSS_PRODUCT)
        if law not in (CROSS_PRODUCT, DERIVATION_CONSISTENT):
            raise ScenarioError("$.dynamics.force_law: must be "
                                f"{CROSS_PRODUCT!r} or {DERIVATION_CONSISTENT!r}")
        gamma_ratio = _number(dyn["Gamma"], "$.dynamics.Gamma") \
            if "Gamma" in dyn else couplings.Gamma
        ext = dyn.get("external_force", [0.0, 0.0, 0.0])
        external = np.array(_vector(ext, "$.dynamics.external_force", 3))
        try:
            dynamics = DynamicsParams(
                Gamma=gamma_ratio,
                time_step=_number(dyn["time_step"], "$.dynamics.time_step"),
                steps=_integer(dyn["steps"], "$.dynamics.steps"),
                force_law=law,
                external_force=external)
        except ValueError as err:
            raise ScenarioError(f"$.dynamics: {err}") from err

        if not isinstance(dyn["lines"], list) or not dyn["lines"]:
            raise ScenarioError("$.dynamics.lines: expected a nonempty list")
        parsed_lines = []
        ids = {}
        for i, lobj in enumerate(dyn["lines"]):
            path = f"$.dynamics.lines[{i}]"
            _expect_keys(lobj, path, ("nodes", "burgers"),
                         ("closed", "mobility", "id"))
            if not isinstance(lobj["nodes"], list):
                raise ScenarioError(f"{path}.nodes: expected a list")
            nodes = [_vector(nd, f"{path}.nodes[{k}]", 3)
                     for k, nd in enumerate(lobj["nodes"])]
            closed = lobj.get("closed", False)
            if not isinstance(closed, bool):
                raise ScenarioError(f"{path}.closed: expected a boolean")
            line_id = lobj.get("id", f"line{i}")
            if not isinstance(line_id, str):
                raise ScenarioError(f"{path}.id: expected a string")
            if any(c in line_id for c in ',"\r\n\0'):
                raise ScenarioError(f"{path}.id: {line_id!r} holds a comma, "
                                    "a double quote, a line break or a NUL, "
                                    "which its trajectory.csv field cannot "
                                    "hold")
            if "+" in line_id:
                raise ScenarioError(f"{path}.id: {line_id!r} holds '+', "
                                    "which joins the ids of merged lines")
            if line_id in ids:
                raise ScenarioError(f"{path}.id: {line_id!r} is already the "
                                    f"id of $.dynamics.lines[{ids[line_id]}]")
            ids[line_id] = i
            try:
                parsed_lines.append(DislocationLine(
                    nodes=np.array(nodes),
                    burgers=np.array(_vector(lobj["burgers"],
                                             f"{path}.burgers", 3)),
                    closed=closed,
                    mobility=_number(lobj.get("mobility", 1.0),
                                     f"{path}.mobility"),
                    id=line_id))
            except ValueError as err:
                raise ScenarioError(f"{path}: {err}") from err
        lines = tuple(parsed_lines)

        source_objs = dyn.get("disclination_sources", [])
        if not isinstance(source_objs, list):
            raise ScenarioError(
                "$.dynamics.disclination_sources: expected a list")
        parsed_sources = []
        for i, sobj in enumerate(source_objs):
            path = f"$.dynamics.disclination_sources[{i}]"
            _expect_keys(sobj, path, ("position", "frank", "core_radius"))
            try:
                parsed_sources.append(DisclinationSource(
                    position=_vector(sobj["position"], f"{path}.position", 2),
                    frank=_number(sobj["frank"], f"{path}.frank"),
                    core_radius=_number(sobj["core_radius"],
                                        f"{path}.core_radius")))
            except ValueError as err:
                raise ScenarioError(f"{path}: {err}") from err
        sources = tuple(parsed_sources)
        if "reconnection_threshold" in dyn:
            threshold = _number(dyn["reconnection_threshold"],
                                "$.dynamics.reconnection_threshold")
            if threshold <= 0:
                raise ScenarioError(
                    "$.dynamics.reconnection_threshold: must be positive")

    scenario = Scenario(name=name, grid=grid, defects=tuple(defects),
                        couplings=couplings, outputs=tuple(outputs),
                        dynamics=dynamics, lines=lines,
                        disclination_sources=sources,
                        reconnection_threshold=threshold)
    try:
        scenario.configuration()
    except ValueError as err:
        raise ScenarioError(f"$.defects: {err}") from err
    return scenario


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ScenarioError(f"cannot read scenario file: {err}") from err
    except json.JSONDecodeError as err:
        raise ScenarioError(f"invalid JSON in {path}: {err}") from err
    return parse_scenario(doc)


def scenario_to_doc(s: Scenario) -> dict:
    """Round-trippable JSON document for echoing into the output directory."""
    doc = {
        "name": s.name,
        "grid": {"extents": [list(e) for e in s.grid.extents],
                 "resolution": list(s.grid.resolution)},
        "defects": [],
        "couplings": {"alpha": s.couplings.alpha, "beta": s.couplings.beta,
                      "gamma": s.couplings.gamma,
                      "kappa_u1": s.couplings.kappa_u1,
                      "lambda_u1": s.couplings.lambda_u1},
        "outputs": list(s.outputs),
    }
    for d in s.defects:
        rec = {"kind": d.kind, "position": list(d.position),
               "charge": d.charge, "core_radius": d.core_radius}
        if d.burgers_direction is not None:
            rec["burgers_direction"] = list(d.burgers_direction)
        doc["defects"].append(rec)
    if s.dynamics is not None:
        dyn = {
            "Gamma": s.dynamics.Gamma,
            "time_step": s.dynamics.time_step,
            "steps": s.dynamics.steps,
            "force_law": s.dynamics.force_law,
            "external_force": list(np.asarray(s.dynamics.external_force,
                                              float)),
            "lines": [{"nodes": [list(map(float, nd)) for nd in l.nodes],
                       "burgers": list(map(float, l.burgers)),
                       "closed": l.closed, "mobility": l.mobility,
                       "id": l.id} for l in s.lines],
        }
        if s.disclination_sources:
            dyn["disclination_sources"] = [
                {"position": list(src.position), "frank": src.frank,
                 "core_radius": src.core_radius}
                for src in s.disclination_sources]
        if s.reconnection_threshold is not None:
            dyn["reconnection_threshold"] = s.reconnection_threshold
        doc["dynamics"] = dyn
    return doc
