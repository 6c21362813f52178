"""File formats: edge/node CSVs, subgraph JSONL, digests, run manifests.

Floats are serialized with repr (shortest round-trip form), so load(save(x))
reproduces binary64 values exactly and reruns with equal seeds produce
byte-identical files.
"""

import hashlib
import json
import logging
import os

from .graph_core import (
    NODE_LABEL_CODES,
    NODE_LABEL_NAMES,
    GraphLoadError,
    Subgraph,
    load_graph,
)

logger = logging.getLogger(__name__)

EDGES_FILE = "edges.csv"
NODES_FILE = "nodes.csv"
SUBGRAPHS_FILE = "subgraphs.jsonl"


def write_edges_csv(path, edge_list):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("src,dst\n")
        for u, v in edge_list:
            fh.write(f"{u},{v}\n")


def read_edges_csv(path):
    edges = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "src,dst":
            raise GraphLoadError(f"{path}: expected header 'src,dst', got {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            src, dst = line.split(",")
            edges.append((int(src), int(dst)))
    return edges


def write_nodes_csv(path, graph):
    dim = graph.feature_dim
    has_labels = graph.node_labels is not None
    cols = ["id"] + [f"f_{i}" for i in range(dim)] + (["label"] if has_labels else [])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for v in range(graph.num_nodes):
            row = [str(v)] + [repr(float(x)) for x in graph.features[v]]
            if has_labels:
                row.append(NODE_LABEL_NAMES[int(graph.node_labels[v])])
            fh.write(",".join(row) + "\n")


def read_nodes_csv(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "id":
            raise GraphLoadError(f"{path}: first column must be 'id'")
        has_label = header[-1] == "label"
        n_feats = len(header) - 1 - int(has_label)
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            expected = 1 + n_feats + int(has_label)
            if len(parts) != expected:
                raise GraphLoadError(
                    f"{path}:{line_no}: expected {expected} fields, got {len(parts)}"
                )
            node_id = int(parts[0])
            feats = [float(x) for x in parts[1 : 1 + n_feats]]
            label = None
            if has_label and parts[-1]:
                if parts[-1] not in NODE_LABEL_CODES:
                    raise GraphLoadError(
                        f"{path}:{line_no}: unknown label {parts[-1]!r}"
                    )
                label = parts[-1]
            rows.append((node_id, feats, label))
    return rows


def write_subgraphs_jsonl(path, subgraphs):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for sg in subgraphs:
            record = {
                "id": sg.id,
                "label": sg.label,
                "nodes": [int(n) for n in sg.nodes],
                "edges": [[int(u), int(v)] for u, v in sg.edges],
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


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
    return [
        os.path.join(out_dir, name)
        for name in (EDGES_FILE, NODES_FILE, SUBGRAPHS_FILE)
    ]


def load_dataset(data_dir, require_subgraphs=True):
    """Load (graph, subgraphs) from a directory in the standard layout."""
    edges = read_edges_csv(os.path.join(data_dir, EDGES_FILE))
    nodes = read_nodes_csv(os.path.join(data_dir, NODES_FILE))
    graph, stats = load_graph(edges, nodes)
    for what, count in stats.items():
        if count:
            logger.warning("%s: %d %s", data_dir, count, what)
    sub_path = os.path.join(data_dir, SUBGRAPHS_FILE)
    subgraphs = []
    if os.path.exists(sub_path):
        subgraphs = read_subgraphs_jsonl(sub_path, graph.id_remap, graph.num_nodes)
    elif require_subgraphs:
        raise GraphLoadError(f"missing {sub_path}")
    return graph, subgraphs


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
        "input_digests": {
            os.path.basename(p): sha256_file(p) for p in sorted(input_paths)
        },
        "tool_version": tool_version,
        "wall_time": wall_time,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest
