"""Seeded egocentric inputs for the benchmark: scenes, instructions, questions,
predictions, and the measured properties of what was generated.

Cameras walk a smooth trajectory through a rectangular floor plan at head
height, yawing with the walking direction plus a look-around swing and
pitched down towards the floor.  Furniture-sized boxes stand on the floor,
so a fair share of (view, object) pairs straddle the camera's near plane:
that is the clipping case of the visibility kernel.

Everything here depends on numpy and the standard library only; nothing is
imported from the program under test.  The same seed gives the same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NEAR_PLANE = 0.01
IMAGE_W, IMAGE_H = 640, 480
FOCAL = 500.0
IOSA_THRESHOLD = 0.5
MIN_AREA_RATIO = 0.005

# (label, nominal size x, y, z, height of the box bottom above the floor)
CATALOGUE = (
    ("sofa", 2.0, 0.9, 0.8, 0.0),
    ("bed", 2.0, 1.6, 0.6, 0.0),
    ("dining table", 1.6, 0.9, 0.75, 0.0),
    ("coffee table", 1.0, 0.6, 0.45, 0.0),
    ("desk", 1.2, 0.6, 0.75, 0.0),
    ("chair", 0.5, 0.5, 0.9, 0.0),
    ("armchair", 0.8, 0.8, 0.9, 0.0),
    ("bookshelf", 1.0, 0.35, 1.8, 0.0),
    ("wardrobe", 1.2, 0.6, 2.0, 0.0),
    ("cabinet", 0.8, 0.45, 0.9, 0.0),
    ("dresser", 1.0, 0.5, 0.8, 0.0),
    ("nightstand", 0.45, 0.4, 0.55, 0.0),
    ("floor lamp", 0.35, 0.35, 1.6, 0.0),
    ("plant", 0.5, 0.5, 1.0, 0.0),
    ("waste basket", 0.3, 0.3, 0.4, 0.0),
    ("television", 1.2, 0.1, 0.7, 1.0),
    ("picture", 0.8, 0.05, 0.6, 1.4),
    ("mirror", 0.6, 0.05, 1.0, 1.1),
    ("radiator", 1.0, 0.12, 0.6, 0.1),
    ("refrigerator", 0.7, 0.7, 1.8, 0.0),
    ("stove", 0.6, 0.6, 0.9, 0.0),
    ("sink", 0.6, 0.5, 0.9, 0.0),
    ("washing machine", 0.6, 0.6, 0.85, 0.0),
    ("toilet", 0.4, 0.65, 0.75, 0.0),
    ("bathtub", 1.7, 0.75, 0.55, 0.0),
    ("piano", 1.5, 0.6, 1.2, 0.0),
    ("stool", 0.4, 0.4, 0.65, 0.0),
    ("ottoman", 0.6, 0.6, 0.4, 0.0),
    ("backpack", 0.35, 0.25, 0.5, 0.0),
    ("suitcase", 0.5, 0.25, 0.7, 0.0),
)
ANSWERS = (
    "red", "blue", "white", "wooden", "two", "three", "left side", "right side",
    "by the window", "near the door", "on the floor", "against the wall",
    "small", "large", "open", "closed",
)


@dataclass(frozen=True)
class SceneSize:
    """How many scenes of which floor size, views and objects; records per scene."""

    scenes: int
    floor: tuple[float, float]
    views: int
    objects: int
    records: int


@dataclass
class SceneArrays:
    """A generated scene kept as arrays, for measuring input properties."""

    scene_id: str
    labels: list[str]
    centers: np.ndarray  # (N, 3)
    sizes: np.ndarray  # (N, 3)
    headings: np.ndarray  # (N,)
    rotations: np.ndarray  # (V, 3, 3) camera-to-world
    translations: np.ndarray  # (V, 3)

    def view_id(self, i: int) -> str:
        return f"{self.scene_id}-v{i:05d}"


def camera_rotation(yaw: float, pitch: float) -> np.ndarray:
    """Camera-to-world rotation: columns are the camera's right, down and
    forward axes in the world frame (world up is +z)."""
    forward = np.array(
        [math.cos(pitch) * math.cos(yaw), math.cos(pitch) * math.sin(yaw), math.sin(pitch)]
    )
    right = np.array([math.sin(yaw), -math.cos(yaw), 0.0])
    down = np.cross(forward, right)
    return np.stack([right, down, forward], axis=1)


def _trajectory(rng: np.random.Generator, floor, n_views: int):
    width, depth = floor
    margin = 0.6
    pos = np.array([rng.uniform(margin, width - margin), rng.uniform(margin, depth - margin)])
    heading = rng.uniform(-math.pi, math.pi)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    rotations, translations = [], []
    for i in range(n_views):
        heading += rng.normal(0.0, 0.25)
        step = rng.uniform(0.15, 0.35)
        nxt = pos + step * np.array([math.cos(heading), math.sin(heading)])
        if not (margin <= nxt[0] <= width - margin and margin <= nxt[1] <= depth - margin):
            # Turn back towards the middle of the floor with some scatter.
            to_mid = np.array([width / 2.0, depth / 2.0]) - pos
            heading = math.atan2(to_mid[1], to_mid[0]) + rng.normal(0.0, 0.6)
            nxt = pos + step * np.array([math.cos(heading), math.sin(heading)])
            nxt = np.clip(nxt, [margin, margin], [width - margin, depth - margin])
        pos = nxt
        yaw = heading + 0.9 * math.sin(0.35 * i + phase) + rng.normal(0.0, 0.1)
        pitch = -0.3 + rng.normal(0.0, 0.12)
        height = 1.5 + rng.normal(0.0, 0.05)
        rotations.append(camera_rotation(yaw, pitch))
        translations.append([pos[0], pos[1], height])
    return np.array(rotations), np.array(translations)


def make_scene(rng: np.random.Generator, scene_id: str, size: SceneSize) -> SceneArrays:
    width, depth = size.floor
    picks = rng.integers(0, len(CATALOGUE), size=size.objects)
    labels, centers, sizes = [], [], []
    for k in picks:
        label, sx, sy, sz, lift = CATALOGUE[int(k)]
        scale = rng.uniform(0.8, 1.2)
        extent = np.array([sx, sy, sz]) * scale
        half = max(extent[0], extent[1]) / 2.0
        x = rng.uniform(half, width - half)
        y = rng.uniform(half, depth - half)
        labels.append(label)
        centers.append([x, y, lift + extent[2] / 2.0])
        sizes.append(extent)
    rotations, translations = _trajectory(rng, size.floor, size.views)
    return SceneArrays(
        scene_id=scene_id,
        labels=labels,
        centers=np.array(centers),
        sizes=np.array(sizes),
        headings=rng.uniform(-math.pi, math.pi, size=size.objects),
        rotations=rotations,
        translations=translations,
    )


def scene_to_dict(scene: SceneArrays) -> dict:
    intrinsics = {
        "fx": FOCAL, "fy": FOCAL, "cx": IMAGE_W / 2.0, "cy": IMAGE_H / 2.0,
        "width": IMAGE_W, "height": IMAGE_H,
    }
    objects = [
        {
            "object_id": j + 1,
            "label": scene.labels[j],
            "box": {
                "center": scene.centers[j].tolist(),
                "size": scene.sizes[j].tolist(),
                "heading": float(scene.headings[j]),
            },
        }
        for j in range(len(scene.labels))
    ]
    views = [
        {
            "view_id": scene.view_id(i),
            "image_path": f"frames/{scene.view_id(i)}.jpg",
            "intrinsics": intrinsics,
            "pose": {
                "rotation": scene.rotations[i].tolist(),
                "translation": scene.translations[i].tolist(),
                "convention": "camera_to_world",
            },
        }
        for i in range(len(scene.translations))
    ]
    return {
        "scene_id": scene.scene_id,
        "split": "train",
        "points_path": f"points/{scene.scene_id}.ply",
        "objects": objects,
        "views": views,
    }


def box_corners(scene: SceneArrays) -> np.ndarray:
    """World-frame corners, shape (N, 8, 3), in sign-bit order (x, y, z)."""
    signs = np.array(
        [[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
    )
    offsets = signs[None, :, :] * scene.sizes[:, None, :] / 2.0
    c, s = np.cos(scene.headings)[:, None], np.sin(scene.headings)[:, None]
    rotated = np.stack(
        [c * offsets[..., 0] - s * offsets[..., 1], s * offsets[..., 0] + c * offsets[..., 1],
         offsets[..., 2]],
        axis=-1,
    )
    return scene.centers[:, None, :] + rotated


_EDGES = tuple((i, i ^ bit) for i in range(8) for bit in (1, 2, 4) if i < (i ^ bit))


def visibility(scene: SceneArrays, view_index: np.ndarray) -> dict[str, np.ndarray]:
    """Per (view, object) masks for the given views: fully in front of the
    near plane, straddling it, and witnessed (IoSA with the image above 0.5
    and projected area at least 0.5% of the image).  Boxes crossing the
    near plane are clipped at it, as the program documents."""
    corners = box_corners(scene)
    out = {"front": [], "straddle": [], "witnessed": []}
    img_area = float(IMAGE_W * IMAGE_H)
    for start in range(0, len(view_index), 64):
        idx = view_index[start:start + 64]
        rel = corners[None, :, :, :] - scene.translations[idx][:, None, None, :]
        cam = np.einsum("vnkj,vji->vnki", rel, scene.rotations[idx])
        z = cam[..., 2]
        ahead = z > NEAR_PLANE
        n_ahead = ahead.sum(axis=-1)
        pts = [np.where(ahead[..., None], cam, np.nan)]
        for i, j in _EDGES:
            zi, zj = z[..., i], z[..., j]
            cross = ahead[..., i] != ahead[..., j]
            with np.errstate(divide="ignore", invalid="ignore"):
                f = (NEAR_PLANE - zi) / (zj - zi)
            p = cam[..., i, :] + f[..., None] * (cam[..., j, :] - cam[..., i, :])
            p[..., 2] = NEAR_PLANE
            pts.append(np.where(cross[..., None], p, np.nan)[..., None, :])
        allp = np.concatenate(pts, axis=-2)
        visible = n_ahead > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            # Boxes wholly behind the plane have no points; give them zeros
            # so that nanmin and nanmax see no all-NaN rows.
            u = np.where(visible[..., None], IMAGE_W / 2.0 + FOCAL * allp[..., 0] / allp[..., 2], 0.0)
            v = np.where(visible[..., None], IMAGE_H / 2.0 + FOCAL * allp[..., 1] / allp[..., 2], 0.0)
        x0, x1 = np.nanmin(u, axis=-1), np.nanmax(u, axis=-1)
        y0, y1 = np.nanmin(v, axis=-1), np.nanmax(v, axis=-1)
        area = (x1 - x0) * (y1 - y0)
        inter = np.clip(np.minimum(x1, IMAGE_W) - np.maximum(x0, 0.0), 0.0, None) * np.clip(
            np.minimum(y1, IMAGE_H) - np.maximum(y0, 0.0), 0.0, None)
        smaller = np.minimum(area, img_area)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(smaller > 0.0, np.minimum(1.0, inter / smaller), 0.0)
        out["front"].append(n_ahead == 8)
        out["straddle"].append(visible & (n_ahead < 8))
        out["witnessed"].append(
            visible & (area >= MIN_AREA_RATIO * img_area) & (ratio > IOSA_THRESHOLD))
    return {key: np.concatenate(parts) for key, parts in out.items()}


def nearest_objects(scene: SceneArrays, j: int, k: int) -> list[int]:
    """Indices of the k objects nearest to object j on the floor, j first."""
    d = np.linalg.norm(scene.centers[:, :2] - scene.centers[j, :2], axis=1)
    return [int(x) for x in np.argsort(d, kind="stable")[:k]]


def solvability_instructions(rng, scene: SceneArrays, n: int) -> list[dict]:
    """70% local instructions over 1-3 neighbouring objects, 30% wide ones
    over 4-16 objects drawn from regions of 2 to 8 times as many objects, so
    they spread over a good part of the floor.  Set and region sizes follow
    a fixed schedule; only the choice of objects varies with the seed."""
    n_wide = round(0.3 * n)
    kinds = ["wide"] * n_wide + ["local"] * (n - n_wide)
    kinds = [kinds[int(i)] for i in rng.permutation(n)]
    n_obj = len(scene.labels)
    records, n_local, n_wide_seen = [], 0, 0
    for i, kind in enumerate(kinds):
        if kind == "local":
            k = 1 + n_local % 3
            n_local += 1
            members = nearest_objects(scene, int(rng.integers(n_obj)), k)
        else:
            k = 4 + (n_wide_seen * 5) % 13
            spread = (2, 3, 5, 8)[n_wide_seen % 4]
            region = nearest_objects(scene, int(rng.integers(n_obj)), min(spread * k, n_obj))
            members = [region[int(x)] for x in rng.choice(len(region), size=k, replace=False)]
            n_wide_seen += 1
        labels = " and the ".join(scene.labels[m] for m in members[:3])
        records.append({
            "instruction_id": f"{scene.scene_id}-i{i:03d}",
            "scene_id": scene.scene_id,
            "task": "qa",
            "text": f"where is the {labels}?",
            "answer": ANSWERS[int(rng.integers(len(ANSWERS)))],
            "related_object_ids": sorted(m + 1 for m in members),
        })
    return records


def corpus_instructions(rng, scene: SceneArrays, n: int) -> list[dict]:
    """Half qa instructions over one or two neighbouring objects, half dc
    instructions that each describe one target object."""
    records = []
    n_obj = len(scene.labels)
    for i in range(n):
        j = int(rng.integers(n_obj))
        rid = f"{scene.scene_id}-e{i:03d}"
        if i % 2 == 0:
            members = nearest_objects(scene, j, 1 + i % 4 // 2)
            labels = " and the ".join(scene.labels[m] for m in members)
            records.append({
                "instruction_id": rid, "scene_id": scene.scene_id, "task": "qa",
                "text": f"what is next to the {labels}",
                "answer": ANSWERS[int(rng.integers(len(ANSWERS)))],
                "related_object_ids": sorted(m + 1 for m in members),
            })
        else:
            records.append({
                "instruction_id": rid, "scene_id": scene.scene_id, "task": "dc",
                "text": f"describe the {scene.labels[j]}",
                "related_object_ids": [j + 1], "target_object_id": j + 1,
            })
    return records


# Three questions per anchor give three pairs each: many anchors per scene
# rather than a few, so the job's cost averages over many places on the
# floor and varies little from seed to seed.
PER_ANCHOR = 3


def synthesis_questions(rng, scene: SceneArrays, n: int) -> list[dict]:
    """Questions in groups of PER_ANCHOR around a few anchor objects.  Each
    question relates its anchor to one neighbour that no other question
    uses, so exactly the questions sharing an anchor form eligible pairs:
    C(PER_ANCHOR, 2) per anchor, independent of the seed."""
    n_obj = len(scene.labels)
    anchors = [int(x) for x in rng.choice(n_obj, size=n // PER_ANCHOR, replace=False)]
    used = set(anchors)
    records = []
    for a, anchor in enumerate(anchors):
        partners = [m for m in nearest_objects(scene, anchor, n_obj) if m not in used]
        for k in range(PER_ANCHOR):
            partner = partners[k]
            used.add(partner)
            records.append({
                "question_id": f"{scene.scene_id}-q{a:02d}{k:02d}",
                "scene_id": scene.scene_id,
                "text": f"What is between the {scene.labels[anchor]} and the "
                        f"{scene.labels[partner]}?",
                "answer": ANSWERS[int(rng.integers(len(ANSWERS)))],
                "related_object_ids": sorted([anchor + 1, partner + 1]),
            })
    return records


def eligible_pairs(questions: list[dict]) -> list[tuple[dict, dict]]:
    """Same-scene pairs, ordered by question id, whose object sets intersect
    without either containing the other."""
    ordered = sorted(questions, key=lambda q: (q["scene_id"], q["question_id"]))
    pairs = []
    for i, a in enumerate(ordered):
        sa = set(a["related_object_ids"])
        for b in ordered[i + 1:]:
            sb = set(b["related_object_ids"])
            if a["scene_id"] == b["scene_id"] and sa & sb and not sa <= sb and not sb <= sa:
                pairs.append((a, b))
    return pairs


def predictions(rng, pairs) -> list[dict]:
    """One prediction per composed question: about a third wrong, the rest
    the gold answer with its case and trailing punctuation perturbed.  The
    gold answer of a composed question is its first parent's answer."""
    out = []
    for a, b in pairs:
        gold = a["answer"]
        roll = rng.random()
        if roll < 1.0 / 3.0:
            i = int(rng.integers(len(ANSWERS)))
            text = ANSWERS[i] if ANSWERS[i] != gold else ANSWERS[(i + 1) % len(ANSWERS)]
        elif roll < 2.0 / 3.0:
            text = gold.upper() + "."
        else:
            text = " " + gold.capitalize() + " ?!"
        out.append({"question_id": f"{a['question_id']}+{b['question_id']}",
                    "prediction": text})
    return out


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def write_inputs(kind: str, seed: int, size: SceneSize, stride: int, workdir: Path) -> dict:
    """Write scenes/ and the record files for one workload kind into workdir;
    return the measured input properties and the reference data the output
    checks need."""
    salt = {"solvability": 1, "corpus": 2, "synthesize": 3}[kind]
    rng = np.random.default_rng([salt, seed])
    scene_dir = workdir / "scenes"
    scene_dir.mkdir(parents=True, exist_ok=True)
    scenes = [make_scene(rng, f"{kind}-{k}", size) for k in range(size.scenes)]
    records: list[dict] = []
    for scene in scenes:
        (scene_dir / f"{scene.scene_id}.json").write_text(
            json.dumps(scene_to_dict(scene)) + "\n", encoding="utf-8")
        make = {"solvability": solvability_instructions, "corpus": corpus_instructions,
                "synthesize": synthesis_questions}[kind]
        records.extend(make(rng, scene, size.records))

    pairs = eligible_pairs(records) if kind == "synthesize" else []
    if kind == "synthesize":
        write_jsonl(workdir / "questions.jsonl", records)
        write_jsonl(workdir / "predictions.jsonl", predictions(rng, pairs))
    else:
        write_jsonl(workdir / "instructions.jsonl", records)

    front = straddle = witnessed = total = 0
    for scene in scenes:
        vis = visibility(scene, np.arange(0, len(scene.translations), stride))
        front += int(vis["front"].sum())
        straddle += int(vis["straddle"].sum())
        witnessed += int(vis["witnessed"].sum())
        total += vis["front"].size
    properties = {
        "scenes": size.scenes,
        "floor_m": list(size.floor),
        "views_per_scene": size.views,
        "objects_per_scene": size.objects,
        "records_per_scene": len(records) / size.scenes,
        "candidate_view_stride": stride,
        "straddle_share": straddle / total,
        "front_share": front / total,
        "witness_density": witnessed / total,
        "eligible_pairs": len(pairs),
    }
    reference = {
        "scenes": {
            s.scene_id: {"views": [s.view_id(i) for i in range(len(s.translations))],
                         "objects": list(range(1, len(s.labels) + 1))}
            for s in scenes
        },
        "records": records,
    }
    return {"properties": properties, "reference": reference}
