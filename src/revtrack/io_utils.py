"""File formats: edge/node CSVs, subgraph JSONL, digests, run manifests.

Floats are serialized with repr (shortest round-trip form), so load(save(x))
reproduces binary64 values exactly and reruns with equal seeds produce
byte-identical files.
"""

import hashlib
import json
import logging
import os

import numpy as np

from .graph_core import (
    NODE_LABEL_CODES,
    NODE_LABEL_NAMES,
    UNKNOWN,
    GraphLoadError,
    Subgraph,
    load_graph,
)

logger = logging.getLogger(__name__)

EDGES_FILE = "edges.csv"
NODES_FILE = "nodes.csv"
SUBGRAPHS_FILE = "subgraphs.jsonl"


def write_edges_csv(path, edges):
    """Write an (m, 2) array of (src, dst) rows under a 'src,dst' header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("src,dst\n" + "".join(f"{u},{v}\n" for u, v in edges.tolist()))


def _read_body(path):
    """(header line, remaining text) of a CSV file."""
    with open(path, encoding="utf-8") as fh:
        return fh.readline().strip(), fh.read()


def _reject_first_bad_line(path, text, n_fields, has_label=False):
    """Raise naming the first line of ``text`` (line 2 of ``path`` on) with
    other than ``n_fields`` fields or an unknown label."""
    for line_no, line in enumerate(text.split("\n"), start=2):
        parts = line.split(",")
        if line and len(parts) != n_fields:
            raise GraphLoadError(
                f"{path}:{line_no}: expected {n_fields} fields, got {len(parts)}"
            )
        if line and has_label and parts[-1].rstrip() not in ("", *NODE_LABEL_CODES):
            raise GraphLoadError(f"{path}:{line_no}: unknown label {parts[-1].rstrip()!r}")


def _load_rows(path, text, dtype, n_fields):
    """The non-empty lines of ``text``, the body of ``path``, as a ``dtype``
    array. Ids parse as integers, never through float. A parse error names
    the file line of the first line that does not parse."""
    if not text.strip():
        return np.zeros(0, dtype)
    parse = lambda lines: np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                                     ndmin=1)
    try:
        return parse(text.split("\n"))
    except ValueError as exc:
        _reject_first_bad_line(path, text, n_fields)
        for line_no, line in enumerate(text.split("\n"), start=2):
            try:
                if line.strip():
                    parse([line])
            except ValueError as line_exc:
                # numpy counts rows of its one-line input, not file lines
                reason = str(line_exc).split(" at row ")[0]
                raise GraphLoadError(f"{path}:{line_no}: {reason}") from None
        raise GraphLoadError(f"{path}: {exc}") from None


def read_edges_csv(path):
    """The (src, dst) rows of an edges file as an (m, 2) int64 array."""
    header, text = _read_body(path)
    if header != "src,dst":
        raise GraphLoadError(f"{path}: expected header 'src,dst', got {header!r}")
    return _load_rows(path, text, np.dtype([("edge", np.int64, (2,))]), 2)["edge"]


def write_nodes_csv(path, graph):
    header = ["id"] + [f"f_{i}" for i in range(graph.feature_dim)]
    labels = [[]] * graph.num_nodes
    if graph.node_labels is not None:
        header.append("label")
        labels = [[NODE_LABEL_NAMES[c]] for c in graph.node_labels.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + "".join(
            ",".join([str(v), *map(repr, row), *label]) + "\n"
            for v, (row, label) in enumerate(zip(graph.features.tolist(), labels))))


def read_nodes_csv(path):
    """Columns of a nodes file: (ids, (n, d) features, label codes or None).

    The label codes are None when no row names a label; otherwise a row
    with an empty label field gets UNKNOWN.
    """
    header, text = _read_body(path)
    header = header.split(",")
    if header[0] != "id":
        raise GraphLoadError(f"{path}: first column must be 'id'")
    has_label = header[-1] == "label"
    fields = [("id", np.int64), ("f", np.float64, (len(header) - 1 - has_label,))]
    fields += [("label", object)] * has_label
    rows = _load_rows(path, text, np.dtype(fields), len(header))
    names = np.char.rstrip(rows["label"].astype(str)) if has_label else np.array([""])
    if not (names != "").any():
        return rows["id"], rows["f"], None
    if not np.isin(names, ["", *NODE_LABEL_CODES]).all():
        _reject_first_bad_line(path, text, len(header), has_label=True)
    codes = np.select([names == n for n in NODE_LABEL_CODES], [*NODE_LABEL_CODES.values()],
                      UNKNOWN)
    return rows["id"], rows["f"], codes.astype(np.int8)


def write_subgraphs_jsonl(path, subgraphs):
    """One compact JSON record (id, label, nodes, edges) per subgraph and line.

    Each line is formatted directly and equals ``json.dumps(record,
    separators=(",", ":"))``: only the id and label need ``json.dumps``,
    because ``Subgraph`` makes every node id an int.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            f'{{"id":{json.dumps(sg.id)},"label":{json.dumps(sg.label)},'
            f'"nodes":[{",".join(map(str, sg.nodes))}],'
            f'"edges":[{",".join(f"[{u},{v}]" for u, v in sg.edges)}]}}\n'
            for sg in subgraphs)


def dense_node_ids(ids, source, id_remap=None, num_nodes=None):
    """Dense row indices of the original node ids ``ids``, in order.

    With ``id_remap`` (original -> dense) an id must be one of its keys;
    otherwise, given ``num_nodes``, it must lie in [0, num_nodes), so a
    negative id cannot alias a row from the end. With neither, ids pass
    through unchecked. Raises GraphLoadError naming ``source`` and the
    first id that is not an integer or not a node of the graph.
    """
    out = []
    for n in ids:
        if isinstance(n, bool) or not isinstance(n, int):
            raise GraphLoadError(f"{source}: node id {n!r} is not an integer")
        dense = id_remap.get(n) if id_remap else n
        if dense is None or (num_nodes is not None and not 0 <= dense < num_nodes):
            raise GraphLoadError(f"{source}: node id {n} is not a node of the graph")
        out.append(dense)
    return out


def read_subgraphs_jsonl(path, id_remap=None, num_nodes=None):
    """Subgraphs of a JSONL file, node ids mapped by ``dense_node_ids``."""
    subgraphs = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise GraphLoadError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
            where = f"{path}:{line_no}"
            if not isinstance(record, dict) or not {"id", "nodes", "edges"} <= record.keys():
                raise GraphLoadError(f"{where}: record needs keys 'id', 'nodes' and 'edges'")
            nodes, edges = record["nodes"], record["edges"]
            if not isinstance(nodes, list) or not isinstance(edges, list):
                raise GraphLoadError(f"{where}: 'nodes' and 'edges' must be lists")
            for e in edges:
                if not isinstance(e, list) or len(e) != 2:
                    raise GraphLoadError(f"{where}: edge {e!r} is not a [src, dst] pair")
            subgraphs.append(
                Subgraph(
                    id=str(record["id"]),
                    nodes=dense_node_ids(nodes, where, id_remap, num_nodes),
                    edges=tuple(dense_node_ids(e, where, id_remap, num_nodes)
                                for e in edges),
                    label=record.get("label"),
                )
            )
    return subgraphs


def save_dataset(dataset, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_edges_csv(os.path.join(out_dir, EDGES_FILE), dataset.graph.edge_list())
    write_nodes_csv(os.path.join(out_dir, NODES_FILE), dataset.graph)
    write_subgraphs_jsonl(os.path.join(out_dir, SUBGRAPHS_FILE), dataset.subgraphs)
    return [os.path.join(out_dir, name) for name in (EDGES_FILE, NODES_FILE, SUBGRAPHS_FILE)]


def load_dataset(data_dir, require_subgraphs=True):
    """Load (graph, subgraphs) from a directory in the standard layout.

    With ``require_subgraphs`` False the subgraph file is not read and the
    subgraph list is empty.
    """
    edges = read_edges_csv(os.path.join(data_dir, EDGES_FILE))
    graph, stats = load_graph(edges, *read_nodes_csv(os.path.join(data_dir, NODES_FILE)))
    for what, count in stats.items():
        if count:
            logger.warning("%s: %d %s", data_dir, count, what)
    if not require_subgraphs:
        return graph, []
    sub_path = os.path.join(data_dir, SUBGRAPHS_FILE)
    if not os.path.exists(sub_path):
        raise GraphLoadError(f"missing {sub_path}")
    return graph, read_subgraphs_jsonl(sub_path, graph.id_remap, graph.num_nodes)


# ---------------------------------------------------------------------------
# provenance


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_manifest(manifest_path, command, config, seeds, input_paths, wall_time,
                   tool_version):
    manifest = {
        "command": command,
        "config_hash": config_hash(config),
        "seeds": seeds,
        "input_digests": {p: sha256_file(p) for p in sorted(input_paths)},
        "tool_version": tool_version,
        "wall_time": wall_time,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest
