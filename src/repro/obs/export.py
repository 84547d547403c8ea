"""Registry exposition: Prometheus text format, JSON, and a parser.

:func:`render_prometheus` emits the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ (``# HELP``
/ ``# TYPE`` headers, one ``name{labels} value`` line per series,
histograms as cumulative ``_bucket``/``_sum``/``_count`` series).
:func:`parse_prometheus` reads that format back into a flat sample list —
it exists so the round-trip test can assert the exposition is well-formed,
and doubles as a tiny scrape-output reader for tooling.

:func:`registry_to_json` is the machine-readable sibling used by the CLI's
``--metrics-json`` flag and the bench recorder.
"""

from __future__ import annotations

import json
import math
import pathlib

from repro.errors import ConfigurationError
from repro.obs.registry import Histogram, MetricsRegistry


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(names: tuple, values: tuple, extra: tuple = ()) -> str:
    pairs = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(names, values)
    ] + [f'{name}="{_escape_label_value(str(value))}"' for name, value in extra]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The whole registry as Prometheus text exposition (one scrape body)."""
    lines: list[str] = []
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            with metric._lock:
                keys = sorted(metric._counts)
            for key in keys:
                snap = metric.snapshot(**dict(zip(metric.labels, key)))
                cumulative = 0
                for bound in metric.buckets:
                    cumulative = snap["buckets"][bound]
                    labels = _format_labels(
                        metric.labels, key, extra=(("le", _format_value(bound)),)
                    )
                    lines.append(f"{metric.name}_bucket{labels} {cumulative}")
                labels = _format_labels(metric.labels, key, extra=(("le", "+Inf"),))
                lines.append(f"{metric.name}_bucket{labels} {snap['count']}")
                labels = _format_labels(metric.labels, key)
                lines.append(f"{metric.name}_sum{labels} {_format_value(snap['sum'])}")
                lines.append(f"{metric.name}_count{labels} {snap['count']}")
        else:
            for key, value in sorted(metric.series().items()):
                labels = _format_labels(metric.labels, key)
                lines.append(f"{metric.name}{labels} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> list[dict]:
    """Parse text exposition into ``[{name, labels, value}, ...]`` samples.

    ``labels`` is a ``{name: value}`` dict.  ``# HELP``/``# TYPE`` comment
    lines are validated for shape and skipped.  Raises
    :class:`~repro.errors.ConfigurationError` on malformed lines, which is
    what makes the round-trip test meaningful.
    """
    samples: list[dict] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ConfigurationError(f"malformed comment line: {raw!r}")
            continue
        brace = line.find("{")
        labels: dict[str, str] = {}
        if brace != -1:
            close = line.rfind("}")
            if close == -1 or close < brace:
                raise ConfigurationError(f"unbalanced label braces: {raw!r}")
            name = line[:brace]
            label_body = line[brace + 1 : close]
            value_part = line[close + 1 :].strip()
            cursor = 0
            while cursor < len(label_body):
                eq = label_body.index("=", cursor)
                label_name = label_body[cursor:eq].strip()
                if label_body[eq + 1] != '"':
                    raise ConfigurationError(f"unquoted label value: {raw!r}")
                # Scan the quoted value honouring backslash escapes.
                pos = eq + 2
                chars: list[str] = []
                while True:
                    ch = label_body[pos]
                    if ch == "\\":
                        nxt = label_body[pos + 1]
                        chars.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
                        pos += 2
                    elif ch == '"':
                        pos += 1
                        break
                    else:
                        chars.append(ch)
                        pos += 1
                labels[label_name] = "".join(chars)
                if pos < len(label_body) and label_body[pos] == ",":
                    pos += 1
                cursor = pos
        else:
            name, _, value_part = line.partition(" ")
            value_part = value_part.strip()
        if not name or not value_part:
            raise ConfigurationError(f"malformed sample line: {raw!r}")
        value_token = value_part.split()[0]
        if value_token == "+Inf":
            value = math.inf
        elif value_token == "-Inf":
            value = -math.inf
        else:
            value = float(value_token)
        samples.append({"name": name, "labels": labels, "value": value})
    return samples


def registry_to_json(registry: MetricsRegistry) -> dict:
    """JSON-safe dict view of the registry (the ``--metrics-json`` body)."""
    out: dict[str, dict] = {}
    for metric in registry.metrics():
        entry: dict[str, object] = {
            "type": metric.kind,
            "help": metric.help,
            "labels": list(metric.labels),
        }
        if isinstance(metric, Histogram):
            with metric._lock:
                keys = sorted(metric._counts)
            entry["series"] = [
                {
                    "labels": dict(zip(metric.labels, key)),
                    **{
                        k: (
                            {str(b): c for b, c in v.items()}
                            if isinstance(v, dict)
                            else v
                        )
                        for k, v in metric.snapshot(
                            **dict(zip(metric.labels, key))
                        ).items()
                    },
                }
                for key in keys
            ]
        else:
            entry["series"] = [
                {"labels": dict(zip(metric.labels, key)), "value": value}
                for key, value in sorted(metric.series().items())
            ]
        out[metric.name] = entry
    return out


def write_metrics_json(registry: MetricsRegistry, path, extra: dict | None = None) -> None:
    """Dump :func:`registry_to_json` (plus optional ``extra`` keys) to ``path``."""
    body: dict[str, object] = {"metrics": registry_to_json(registry)}
    if extra:
        body.update(extra)
    pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(body, handle, indent=2, default=str)
        handle.write("\n")
