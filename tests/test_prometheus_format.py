"""Strict Prometheus text-exposition (0.0.4) correctness.

A real parser — not substring checks — over ``metrics_text()``: every
sample family is preceded by matching ``# HELP``/``# TYPE`` lines,
label values round-trip through escaping, histogram buckets are
cumulative with ordered ``le`` bounds and ``+Inf == _count``, and the
per-query-class gauge cardinality stays bounded no matter how many
classes telemetry has seen.
"""

import math

import pytest

from repro.obs.recorder import database_from_config
from repro.service import QueryService, ServiceConfig
from repro.service.metrics import ServiceMetrics

RECIPE = {"db": "music", "seed": 21, "lineages": 3, "generations": 6}

SCAN = "select [name: x.name] from x in Composer where x.birthyear >= 1700;"

FIG3 = """
view Influencer as
  select [master: x.master, disciple: x, gen: 1] from x in Composer
  union
  select [master: i.master, disciple: x, gen: i.gen + 1]
  from i in Influencer, x in Composer where i.disciple = x.master;

select [name: i.disciple.name, gen: i.gen]
from i in Influencer
where i.gen >= 2;
"""

VALID_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}

#: Metric-name suffixes that attach samples to a declared family.
FAMILY_SUFFIXES = ("_bucket", "_sum", "_count")


def parse_labels(text):
    """Parse one ``{k="v",...}`` label block, honouring escapes."""
    labels = {}
    index = 0
    while index < len(text) and text[index] != "}":
        end = text.index("=", index)
        key = text[index:end].lstrip(",")
        assert text[end + 1] == '"', text
        index = end + 2
        value = []
        while text[index] != '"':
            char = text[index]
            if char == "\\":
                escape = text[index + 1]
                value.append(
                    {"\\": "\\", '"': '"', "n": "\n"}[escape]
                )
                index += 2
            else:
                value.append(char)
                index += 1
        labels[key] = "".join(value)
        index += 1
    return labels, index + 1


def parse_exposition(text):
    """Parse the exposition into (families, samples).

    ``families`` maps name -> {"help": str, "type": str}; ``samples``
    is a list of (name, labels-dict, float-value).  Asserts structural
    validity along the way.
    """
    families = {}
    samples = []
    pending_help = None
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        assert line == line.strip(), f"stray whitespace: {line!r}"
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert help_text, f"HELP without text: {line!r}"
            pending_help = (name, help_text)
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, type_text = rest.partition(" ")
            assert type_text in VALID_TYPES, line
            assert pending_help and pending_help[0] == name, (
                f"TYPE for {name} not directly preceded by its HELP"
            )
            assert name not in families, f"family {name} declared twice"
            families[name] = {"help": pending_help[1], "type": type_text}
            pending_help = None
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        brace = line.find("{")
        if brace != -1:
            name = line[:brace]
            labels, consumed = parse_labels(line[brace + 1 :])
            value_text = line[brace + 1 + consumed :].strip()
        else:
            name, _, value_text = line.partition(" ")
            labels = {}
        value = float(value_text)
        assert not math.isnan(value), line
        samples.append((name, labels, value))

    for name, labels, _value in samples:
        family = name
        if family not in families:
            for suffix in FAMILY_SUFFIXES:
                if name.endswith(suffix):
                    family = name[: -len(suffix)]
                    break
        assert family in families, f"sample {name} has no HELP/TYPE"
        kind = families[family]["type"]
        if kind == "histogram" and name.endswith("_bucket"):
            assert "le" in labels, f"histogram bucket without le: {name}"
    return families, samples


def check_histograms(families, samples):
    """Cumulative buckets, ascending ``le``, ``+Inf`` == ``_count``."""
    checked = 0
    for family, meta in families.items():
        if meta["type"] != "histogram":
            continue
        buckets = [
            (labels["le"], value)
            for name, labels, value in samples
            if name == f"{family}_bucket"
        ]
        assert buckets, family
        bounds = [le for le, _ in buckets]
        assert bounds[-1] == "+Inf", bounds
        finite = [float(le) for le in bounds[:-1]]
        assert finite == sorted(finite), f"{family}: le out of order"
        counts = [value for _, value in buckets]
        assert counts == sorted(counts), f"{family}: non-cumulative"
        count = next(
            value
            for name, _labels, value in samples
            if name == f"{family}_count"
        )
        assert counts[-1] == count, f"{family}: +Inf != _count"
        checked += 1
    return checked


@pytest.fixture()
def service():
    svc = QueryService(
        database_from_config(RECIPE),
        ServiceConfig(database_config=RECIPE),
    )
    for _ in range(3):
        assert svc.handle({"op": "query", "text": SCAN})["ok"]
    assert svc.handle({"op": "query", "text": FIG3})["ok"]
    return svc


class TestExposition:
    def test_every_sample_has_help_and_type(self, service):
        families, samples = parse_exposition(service.metrics_text())
        assert samples
        for name in (
            "repro_flight_bundles_total",
            "repro_misestimate_ratio",
            "repro_execute_latency_hist_seconds",
        ):
            assert name in families, sorted(families)

    def test_histograms_are_wellformed(self, service):
        families, samples = parse_exposition(service.metrics_text())
        assert check_histograms(families, samples) >= 2

    def test_no_duplicate_samples(self, service):
        _families, samples = parse_exposition(service.metrics_text())
        keys = [
            (name, tuple(sorted(labels.items())))
            for name, labels, _ in samples
        ]
        assert len(keys) == len(set(keys))

    def test_counter_types_declared(self, service):
        families, _ = parse_exposition(service.metrics_text())
        assert families["repro_requests_total"]["type"] == "counter"
        assert families["repro_misestimate_ratio"]["type"] == "gauge"
        assert (
            families["repro_execute_latency_hist_seconds"]["type"]
            == "histogram"
        )
        assert families["repro_execute_latency_seconds"]["type"] == "summary"


class TestLabelEscaping:
    def test_hostile_label_values_round_trip(self):
        metrics = ServiceMetrics()
        hostile = 'quote:" backslash:\\ newline:\nend'
        metrics.set_gauge(
            "escape_probe",
            1.0,
            "Escaping probe.",
            labels={"victim": hostile},
        )
        _families, samples = parse_exposition(metrics.to_prometheus())
        probes = [
            labels for name, labels, _ in samples
            if name == "repro_escape_probe"
        ]
        assert probes == [{"victim": hostile}]


class TestCardinalityBound:
    def test_query_class_gauges_are_capped(self, service, monkeypatch):
        fake = {
            f"class{index:03d}": {
                "runs": 1000 - index,
                "cost_misestimate": 1.0 + index / 100.0,
                "operator_misestimate": 1.5,
            }
            for index in range(3 * service.GAUGE_CLASS_CAP)
        }
        monkeypatch.setattr(
            service.feedback, "misestimate_by_query", lambda: fake
        )
        _families, samples = parse_exposition(service.metrics_text())
        classes = {
            labels["query_class"]
            for name, labels, _ in samples
            if name == "repro_misestimate_ratio"
        }
        assert 0 < len(classes) <= service.GAUGE_CLASS_CAP
        # The cap keeps the *most-run* classes, not an arbitrary subset.
        assert "class000" in classes
        assert f"class{3 * service.GAUGE_CLASS_CAP - 1:03d}" not in classes

    def test_stale_classes_disappear(self, service, monkeypatch):
        monkeypatch.setattr(
            service.feedback,
            "misestimate_by_query",
            lambda: {
                "fresh": {
                    "runs": 5,
                    "cost_misestimate": 2.0,
                    "operator_misestimate": None,
                }
            },
        )
        _families, samples = parse_exposition(service.metrics_text())
        classes = [
            labels["query_class"]
            for name, labels, _ in samples
            if name == "repro_misestimate_ratio"
        ]
        assert classes == ["fresh"]
