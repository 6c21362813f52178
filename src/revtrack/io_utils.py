"""File formats: edge/node CSVs, subgraph JSONL, digests, run manifests.

Floats are serialized with repr (shortest round-trip form), so load(save(x))
reproduces binary64 values exactly and reruns with equal seeds produce
byte-identical files.

The readers parse a CSV body straight from the open file, so loading never
holds a table's text; only a table that fails to parse is read again, to
name the line at fault. A node feature that is nan or infinite is rejected.
"""

import dataclasses
import hashlib
import json
import logging
import os
import warnings

import numpy as np

from .graph_core import (
    NODE_LABEL_CODES,
    NODE_LABEL_NAMES,
    UNKNOWN,
    GraphLoadError,
    Subgraph,
    id_rows,
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
    """(header line, remaining text) of a CSV file; only error paths call it."""
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


def _parse(lines, dtype):
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _load_rows(path, fh, dtype, n_fields):
    """The body of ``path`` as a ``dtype`` array, one element per non-empty
    line, parsed straight from ``fh`` (open just past the header line). Ids
    parse as integers, never through float.

    Only when the parse fails is the file read again as one text, to name
    the file line of the first line that does not parse; a body of blank
    lines is no rows.
    """
    try:
        with warnings.catch_warnings():
            # an empty body is no rows, not a defect
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return _parse(fh, dtype)
    except ValueError as exc:  # UnicodeDecodeError too: the re-read raises it again
        error = exc
    _, text = _read_body(path)
    if not text.strip():
        return np.zeros(0, dtype)
    _reject_first_bad_line(path, text, n_fields)
    for line_no, line in enumerate(text.split("\n"), start=2):
        try:
            if line.strip():
                _parse([line], dtype)
        except ValueError as line_exc:
            # numpy counts rows of its one-line input, not file lines
            reason = str(line_exc).split(" at row ")[0]
            raise GraphLoadError(f"{path}:{line_no}: {reason}") from None
    raise GraphLoadError(f"{path}: {error}") from None


def read_edges_csv(path):
    """The (src, dst) rows of an edges file as an (m, 2) int64 array."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "src,dst":
            raise GraphLoadError(f"{path}: expected header 'src,dst', got {header!r}")
        return _load_rows(path, fh, np.dtype([("edge", np.int64, (2,))]), 2)["edge"]


def write_nodes_csv(path, graph):
    """One row per node, in row order, under its original id (``node_ids``)."""
    ids = range(graph.num_nodes) if graph.node_ids is None else graph.node_ids.tolist()
    header = ["id"] + [f"f_{i}" for i in range(graph.feature_dim)]
    labels = [[]] * graph.num_nodes
    if graph.node_labels is not None:
        header.append("label")
        labels = [[NODE_LABEL_NAMES[c]] for c in graph.node_labels.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + "".join(
            ",".join([str(v), *map(repr, row), *label]) + "\n"
            for v, row, label in zip(ids, graph.features.tolist(), labels)))


def read_nodes_csv(path):
    """Columns of a nodes file: (ids, (n, d) features, label codes or None).

    The label codes are None when no row names a label; otherwise a row
    with an empty label field gets UNKNOWN. A feature that is nan or
    infinite is an error naming its file line.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "id":
            raise GraphLoadError(f"{path}: first column must be 'id'")
        has_label = header[-1] == "label"
        fields = [("id", np.int64), ("f", np.float64, (len(header) - 1 - has_label,))]
        fields += [("label", object)] * has_label
        rows = _load_rows(path, fh, np.dtype(fields), len(header))
    codes = None
    names = np.char.rstrip(rows["label"].astype(str)) if has_label else np.array([""])
    if (names != "").any():
        if not np.isin(names, ["", *NODE_LABEL_CODES]).all():
            _reject_first_bad_line(path, _read_body(path)[1], len(header), has_label=True)
        codes = np.select([names == n for n in NODE_LABEL_CODES],
                          [*NODE_LABEL_CODES.values()], UNKNOWN).astype(np.int8)
    bad = np.argwhere(~np.isfinite(rows["f"]))
    if bad.size:
        row, col = bad[0]
        # row i of the table is the i-th non-empty line of the body
        line_no = [n for n, line in enumerate(_read_body(path)[1].split("\n"), start=2)
                   if line][row]
        raise GraphLoadError(
            f"{path}:{line_no}: feature {header[1 + col]!r} is {rows['f'][row, col]}")
    return rows["id"], rows["f"], codes


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


def dense_node_ids(ids, source, graph=None):
    """Dense row indices of the original node ids ``ids`` (a list), in order.

    Given ``graph``, an id must be a node of it: one of ``graph.node_ids``,
    or in [0, num_nodes) when that is None, so a negative id cannot alias a
    row from the end. Without a graph, ids pass through unchecked. Raises
    GraphLoadError naming ``source`` and the first id that is not an
    integer or not a node of the graph.
    """
    rows = _node_rows(ids, graph)
    if rows is None:  # name the first id at fault
        for n in ids:
            if type(n) is not int:
                raise GraphLoadError(f"{source}: node id {n!r} is not an integer")
            if _node_rows([n], graph) is None:
                raise GraphLoadError(f"{source}: node id {n} is not a node of the graph")
    return rows


def _node_rows(ids, graph):
    """``dense_node_ids`` of ``ids``, or None if one is not an integer or not a node."""
    if not set(map(type, ids)) <= {int}:  # bool is an int subclass, not an id
        return None
    if graph is None or not ids:
        return ids
    if graph.node_ids is None:
        return ids if 0 <= min(ids) and max(ids) < graph.num_nodes else None
    if min(ids) < -2**63 or max(ids) >= 2**63:  # no node, and beyond what int64 holds
        return None
    rows, held = id_rows(graph.node_ids, ids)
    return rows.tolist() if held.tolist() == ids else None


def read_subgraphs_jsonl(path, graph=None):
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
            ids = list(nodes)  # then each edge's two endpoints
            for e in edges:
                if not isinstance(e, list) or len(e) != 2:
                    raise GraphLoadError(f"{where}: edge {e!r} is not a [src, dst] pair")
                ids += e
            rows = dense_node_ids(ids, where, graph)
            pairs = iter(rows[len(nodes):])
            try:
                subgraphs.append(Subgraph(id=str(record["id"]), nodes=rows[:len(nodes)],
                                          edges=zip(pairs, pairs), label=record.get("label")))
            except ValueError as exc:  # no nodes, an edge off them, an unknown label
                raise GraphLoadError(f"{where}: {exc}") from exc
    return subgraphs


def save_dataset(dataset, out_dir):
    """Write the three files of ``load_dataset``'s layout. A graph that keeps
    its original ids (``node_ids``) is written in them; being ascending, they
    keep the order of rows, edges and subgraph nodes."""
    graph, subgraphs = dataset.graph, dataset.subgraphs
    edges = graph.edge_list()
    if graph.node_ids is not None:
        edges, ids = graph.node_ids[edges], graph.node_ids.tolist()
        subgraphs = [dataclasses.replace(sg, nodes=[ids[v] for v in sg.nodes],
                                         edges=[(ids[u], ids[v]) for u, v in sg.edges])
                     for sg in subgraphs]
    os.makedirs(out_dir, exist_ok=True)
    write_edges_csv(os.path.join(out_dir, EDGES_FILE), edges)
    write_nodes_csv(os.path.join(out_dir, NODES_FILE), graph)
    write_subgraphs_jsonl(os.path.join(out_dir, SUBGRAPHS_FILE), subgraphs)
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
    return graph, read_subgraphs_jsonl(sub_path, graph)


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
