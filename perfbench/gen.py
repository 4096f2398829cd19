"""Seeded input generator for the three benchmark workloads.

The corpus follows the shape of RSICD (Lu et al. 2017, arXiv:1712.07835):
10,921 images in 30 scene classes, five captions per image, a train/val/test
split. Caption text comes from a small grammar over real remote-sensing words
plus a Zipf-distributed tail of pronounceable pseudo-words, so the vocabulary
has about 3,000 types and a realistic hapax share.

``generate(workload, seed, out_dir)`` writes only the files the program (and
the translator stub) reads and returns a manifest of what was planted, which
the program never sees. The same seed gives byte-identical files. Nothing here
imports captionkit.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

N_IMAGES = 10_921
CAPTIONS_PER_IMAGE = 5
N_PSEUDO_WORDS = 2_850

SCENE_TRIGGERS = {
    "airport": ("airport", "runway", "airfield"),
    "bareland": ("bareland", "soil", "wasteland"),
    "baseballfield": ("baseball", "diamond"),
    "beach": ("beach", "waves", "coast"),
    "bridge": ("bridge", "span"),
    "center": ("center", "dome"),
    "church": ("church", "cathedral"),
    "commercial": ("commercial", "shops", "mall"),
    "denseresidential": ("denseresidential", "crowded"),
    "desert": ("desert", "dunes"),
    "farmland": ("farmland", "crops", "farm"),
    "forest": ("forest", "woods"),
    "industrial": ("industrial", "factory", "factories"),
    "meadow": ("meadow", "grassland"),
    "mediumresidential": ("mediumresidential", "residences"),
    "mountain": ("mountain", "peaks"),
    "park": ("park", "garden"),
    "parking": ("parking", "parkinglot"),
    "playground": ("playground", "track"),
    "pond": ("pond", "pool"),
    "port": ("port", "harbor", "dock"),
    "railwaystation": ("railwaystation", "railway", "trains"),
    "resort": ("resort", "villas"),
    "river": ("river", "stream"),
    "school": ("school", "campus"),
    "sparseresidential": ("sparseresidential", "scattered"),
    "square": ("square", "plaza"),
    "stadium": ("stadium", "arena"),
    "storagetanks": ("storagetanks", "tanks"),
    "viaduct": ("viaduct", "overpass"),
}
SCENES = tuple(SCENE_TRIGGERS)

QUANTS = ("many", "several", "some", "a few", "lots of", "two", "three", "four", "numerous")
ADJS = (
    "green", "white", "red", "blue", "gray", "large", "small", "tall", "dense", "sparse",
    "big", "long", "wide", "dark", "bright", "old", "new", "yellow", "brown", "colorful",
    "rectangular", "huge", "tiny", "beautiful", "irregular", "curved",
)
NOUNS = (
    "buildings", "trees", "cars", "roads", "houses", "planes", "ships", "boats", "roofs",
    "lawns", "fields", "towers", "paths", "hills", "courts", "lines", "vehicles", "plants",
    "warehouses", "apartments", "containers", "rocks", "bushes", "streets", "lakes",
)
VERBS = (
    "parked", "located", "arranged", "standing", "built", "lying", "planted", "surrounded",
    "distributed", "neatly arranged", "densely packed",
)
PREPS = (
    "near", "beside", "next to", "around", "in", "on", "along", "behind", "between",
    "in front of", "close to", "on both sides of",
)
OBJECTS = ("plane", "ship", "car", "building", "tree", "road", "tank", "boat", "house", "court")
ATTRIBUTES = (
    "trees", "white", "yellow", "sea", "waves", "green", "buildings", "cars", "planes", "ships",
    "red", "large", "dense", "water", "road", "bridge", "river", "parked", "square", "blue",
)

_ONSETS = "b c d f g h k l m n p r s t v w z br cr dr fl gr pl st tr".split()
_VOWELS = "a e i o u ai ea io".split()
_CODAS = ["", "", "", "n", "r", "s", "l", "t", "m"]


def _pseudo_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    seen = set(taken)
    while len(words) < count:
        syllables = rng.choice((2, 2, 3, 3, 4))
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS) for _ in range(syllables)
        )
        if 4 <= len(word) <= 11 and word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Grammar:
    def __init__(self, rng: random.Random):
        self.rng = rng
        core = {w for group in (QUANTS, ADJS, NOUNS, VERBS, PREPS, OBJECTS, ATTRIBUTES)
                for phrase in group for w in phrase.split()}
        core |= {w for triggers in SCENE_TRIGGERS.values() for w in triggers}
        core |= {"the", "a", "and", "are", "is", "of", "with", "very", "there", "water", "sea"}
        self.pseudo = _pseudo_words(rng, N_PSEUDO_WORDS, core)
        self.vocabulary = sorted(core | set(self.pseudo))
        weights = [1.0 / (rank ** 1.05) for rank in range(1, len(self.pseudo) + 1)]
        self.cum = []
        total = 0.0
        for w in weights:
            total += w
            self.cum.append(total)

    def filler(self, k: int) -> list[str]:
        return self.rng.choices(self.pseudo, cum_weights=self.cum, k=k)

    def phrase(self, scene: str) -> list[str]:
        rng = self.rng
        subject = [rng.choice(QUANTS)]
        if rng.random() < 0.15:
            subject.append("very")
        subject.append(rng.choice(ADJS))
        if rng.random() < 0.5:
            subject.extend(self.filler(1))
        subject.append(rng.choice(NOUNS))
        target = rng.choice(SCENE_TRIGGERS[scene]) if rng.random() < 0.8 else rng.choice(NOUNS)
        words = subject + ["are", rng.choice(VERBS), rng.choice(PREPS), "the"]
        if rng.random() < 0.4:
            words.extend(self.filler(1))
        words.append(target)
        return " ".join(words).split()

    def caption(self, scene: str) -> str:
        rng = self.rng
        words = self.phrase(scene)
        roll = rng.random()
        if roll < 0.12:
            words += ["and"] + self.phrase(scene)[:-2] + self.filler(rng.randint(0, 2))
        elif roll < 0.27:
            words += ["with"] + self.filler(rng.randint(1, 3))
        text = " ".join(words)
        if rng.random() < 0.5:
            text = text[0].upper() + text[1:]
        end = rng.random()
        if end < 0.6:
            text += "."
        elif end < 0.8:
            text += " ."
        if rng.random() < 0.03:
            text += " " + " ".join(self.phrase(scene)) + "."
        return text


def _images(rng: random.Random, grammar: _Grammar) -> list[dict]:
    images = []
    for i in range(N_IMAGES):
        scene = SCENES[i % len(SCENES)]
        roll = rng.random()
        split = "train" if roll < 0.8 else ("val" if roll < 0.9 else "test")
        images.append(
            {
                "filename": f"{scene}_{i // len(SCENES) + 1}.jpg",
                "split": split,
                "class": scene,
                "sentences": [{"raw": grammar.caption(scene)} for _ in range(CAPTIONS_PER_IMAGE)],
            }
        )
    return images


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, ensure_ascii=False) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows),
                    encoding="utf-8")


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _perturb(rng: random.Random, grammar: _Grammar, text: str) -> str:
    out = []
    for word in text.lower().rstrip(" .").split():
        roll = rng.random()
        if roll < 0.08:
            continue
        if roll < 0.3:
            word = rng.choice(grammar.vocabulary[:400] if rng.random() < 0.5 else NOUNS)
        out.append(word)
    return " ".join(out or ["an", "image"])


# ---------------------------------------------------------------- rsicd-analyze

PROBE_IMAGES = 34
PROBE_VALID = 30
PROBE_PUNCT = ("...", "?!", "-- .", ". . .")
PROBE_UNKNOWN = 5
N_QUERIES = 1000


def _gen_analyze(rng: random.Random, grammar: _Grammar, images: list[dict], out: Path) -> dict:
    _write_json(out / "rsicd.json", {"images": images})
    predictions = [
        {"image_id": img["filename"], "caption": _perturb(rng, grammar, rng.choice(img["sentences"])["raw"])}
        for img in images
    ]
    _write_jsonl(out / "predictions.jsonl", predictions)
    labels = [
        {"image_id": img["filename"], "scene": img["class"],
         "objects": rng.sample(OBJECTS, rng.randint(1, 4))}
        for img in images
    ]
    _write_jsonl(out / "labels.jsonl", labels)
    _write_lines(out / "scenes.tsv", (f"{s}\t{','.join(t)}" for s, t in SCENE_TRIGGERS.items()))
    _write_lines(out / "attributes.txt", ATTRIBUTES)

    # Bad-input probe: a small reference slice, valid predictions interleaved
    # with punctuation-only predictions and ids the references do not have.
    probe_images = rng.sample(images, PROBE_IMAGES)
    _write_jsonl(
        out / "probe_refs.jsonl",
        ({"image_id": img["filename"], "split": img["split"], "scene": img["class"],
          "captions": [s["raw"] for s in img["sentences"]]} for img in probe_images),
    )
    probe = [{"image_id": img["filename"], "caption": _perturb(rng, grammar, img["sentences"][0]["raw"])}
             for img in probe_images[:PROBE_VALID]]
    probe += [{"image_id": img["filename"], "caption": text}
              for img, text in zip(probe_images[PROBE_VALID:], PROBE_PUNCT)]
    probe += [{"image_id": f"unknown_{k}.jpg", "caption": "a few trees near the road"}
              for k in range(PROBE_UNKNOWN)]
    rng.shuffle(probe)
    # The defect this probe documents reports the first empty candidate.
    probe.sort(key=lambda row: row["caption"] not in PROBE_PUNCT)
    _write_jsonl(out / "probe_predictions.jsonl", probe)

    terms = list(ATTRIBUTES) + [w for t in SCENE_TRIGGERS.values() for w in t] + list(NOUNS)
    queries = []
    for k in range(N_QUERIES):
        n_terms = 1 + k % 3
        chosen = rng.sample(terms, n_terms)
        if k % 10 == 0:
            chosen.append(grammar.filler(1)[0])
        if k % 7 == 0:
            chosen[0] = chosen[0].capitalize() + ","
        queries.append(chosen)
    _write_jsonl(out / "queries.jsonl", queries)
    return {
        "images": len(images),
        "captions": len(images) * CAPTIONS_PER_IMAGE,
        "predictions": len(predictions),
        "probe": {
            "predictions": len(probe),
            "valid": PROBE_VALID,
            "punctuation_only": len(PROBE_PUNCT),
            "unknown_ids": PROBE_UNKNOWN,
            "valid_ids": sorted(img["filename"].lower() for img in probe_images[:PROBE_VALID]),
        },
        "queries": N_QUERIES,
    }


# ---------------------------------------------------------------- noisy-correct

NOISE_D1 = 400
NOISE_D2 = 25
NOISE_NOMATCH = 20
N_OVERRIDES = 20
N_MERGES = 10
MERGE_OCCURRENCES = 300
EXACT_DUPLICATES = 300
STYLED_DUPLICATES = 300
DROPPED_RECORDS = 20
THESAURUS_ENTRIES = 150


def _edits1(word: str, alphabet: str) -> set[str]:
    splits = [(word[:i], word[i:]) for i in range(len(word) + 1)]
    out = {left + right[1:] for left, right in splits if right}
    out |= {left + right[1] + right[0] + right[2:] for left, right in splits if len(right) > 1}
    out |= {left + ch + right[1:] for left, right in splits if right for ch in alphabet}
    out |= {left + ch + right for left, right in splits for ch in alphabet}
    return out


def _deletes(word: str, depth: int = 2) -> set[str]:
    out = {word}
    for k in range(1, depth + 1):
        out |= {"".join(c for i, c in enumerate(word) if i not in drop)
                for drop in combinations(range(len(word)), k)}
    return out


def _plant_types(rng: random.Random, known: set[str], alphabet: str) -> dict[str, list[str]]:
    """Out-of-dictionary types whose nearest known word is at distance 1, 2, or beyond 2.

    Distance 1: one edit of a known word. Distance 2: two separated
    substitutions whose result has no known word in its one-edit set. No
    match: random strings sharing no two-deletion variant with any known word,
    which puts every known word at Damerau distance three or more.
    """
    letters = "".join(ch for ch in alphabet if ch.isalpha())
    pool = sorted(w for w in known if len(w) >= 5 and w.isalpha())
    used = set(known)
    d1: list[str] = []
    while len(d1) < NOISE_D1:
        word = rng.choice(pool)
        i = rng.randrange(len(word))
        op = rng.randrange(4)
        if op == 0:
            typo = word[:i] + word[i + 1:]
        elif op == 1:
            typo = word[:i] + rng.choice(letters) + word[i + 1:]
        elif op == 2:
            typo = word[:i] + rng.choice(letters) + word[i:]
        else:
            i = min(i, len(word) - 2)
            typo = word[:i] + word[i + 1] + word[i] + word[i + 2:]
        if len(typo) > 3 and typo not in used:
            used.add(typo)
            d1.append(typo)
    # Search cost grows with token length, so every seed plants the same
    # lengths: distance-2 types cycle through 6-10 letters, no-match 7-9.
    by_length: dict[int, list[str]] = {}
    for word in pool:
        by_length.setdefault(len(word), []).append(word)
    d2: list[str] = []
    while len(d2) < NOISE_D2:
        word = rng.choice(by_length[6 + len(d2) % 5])
        i, j = sorted(rng.sample(range(len(word)), 2))
        if j - i < 2:
            continue
        typo = word[:i] + rng.choice(letters) + word[i + 1:j] + rng.choice(letters) + word[j + 1:]
        if typo in used or _edits1(typo, alphabet) & known:
            continue
        used.add(typo)
        d2.append(typo)
    index = set()
    for word in known:
        index |= _deletes(word)
    nomatch: list[str] = []
    while len(nomatch) < NOISE_NOMATCH:
        typo = "".join(rng.choice(letters) for _ in range(7 + len(nomatch) % 3))
        if typo in used or _deletes(typo) & index:
            continue
        used.add(typo)
        nomatch.append(typo)
    return {"distance1": d1, "distance2": d2, "nomatch": nomatch}


def _restyle(rng: random.Random, text: str) -> str:
    """Same tokens, different case and punctuation."""
    body = text.rstrip(" .")
    words = body.split()
    if rng.random() < 0.5:
        words = [w.upper() if rng.random() < 0.3 else w.capitalize() for w in words]
    else:
        words[0] = words[0].swapcase()
    k = rng.randrange(len(words))
    words[k] = words[k] + ","
    return " ".join(words) + rng.choice(("!", " .", "..", "?"))


def _gen_noisy(rng: random.Random, grammar: _Grammar, images: list[dict], out: Path) -> dict:
    dictionary = set(grammar.vocabulary)
    merges = []
    for a, b in zip(rng.sample(grammar.pseudo[:300], N_MERGES), rng.sample(NOUNS, N_MERGES)):
        merges.append(((a, b), f"{a}-{b}"))
    known = dictionary | {m for _, m in merges}
    alphabet = "".join(sorted({ch for w in known for ch in w}))
    planted = _plant_types(rng, known, alphabet)
    override_keys = [t for t in planted["distance1"][:N_OVERRIDES]]
    overrides = {k: rng.choice(grammar.vocabulary) for k in override_keys}

    captions = [s for img in images for s in img["sentences"]]
    n = len(captions)
    # Noise goes into the first half of the captions and duplicates overwrite
    # only the second half, so every planted type survives in the input.
    # Each planted type lands in one to three distinct captions.
    slots = rng.sample(range(n // 2), 4 * (NOISE_D1 + NOISE_D2 + NOISE_NOMATCH) + MERGE_OCCURRENCES)
    cursor = 0
    for typo in planted["distance1"] + planted["distance2"] + planted["nomatch"]:
        for _ in range(rng.randint(1, 3)):
            sentence = captions[slots[cursor]]
            cursor += 1
            words = sentence["raw"].split()
            k = rng.randrange(len(words))
            words.insert(k, typo)
            sentence["raw"] = " ".join(words)
    for _ in range(MERGE_OCCURRENCES):
        (a, b), _merged = merges[rng.randrange(N_MERGES)]
        sentence = captions[slots[cursor]]
        cursor += 1
        sentence["raw"] = f"{sentence['raw'].rstrip(' .')} near {a} {b}."

    # Duplicates copy earlier captions into later slots: exact copies, then
    # case/punctuation restyles, then whole records made only of copies.
    dup_targets = rng.sample(range(n // 2, n), EXACT_DUPLICATES + STYLED_DUPLICATES)
    for k, target in enumerate(dup_targets):
        source = captions[rng.randrange(n // 2)]["raw"]
        captions[target]["raw"] = source if k < EXACT_DUPLICATES else _restyle(rng, source)
    dropped = rng.sample(range(len(images) // 2, len(images)), DROPPED_RECORDS)
    dup_target_images = {t // CAPTIONS_PER_IMAGE for t in dup_targets}
    dropped = [i for i in dropped if i not in dup_target_images]
    for i in dropped:
        for sentence in images[i]["sentences"]:
            sentence["raw"] = captions[rng.randrange(n // 2)]["raw"]

    _write_json(out / "noisy.json", {"images": images})
    _write_lines(out / "dictionary.txt", sorted(dictionary))
    _write_lines(out / "merges.tsv", (f"{a} {b}\t{m}" for (a, b), m in merges))
    _write_lines(out / "overrides.tsv", (f"{k}\t{v}" for k, v in overrides.items()))
    # Fixed make-up, so every seed's thesaurus covers about as many captions:
    # 10 adjectives, 10 nouns and pseudo-words of every third frequency rank.
    heads = list(ADJS[:10]) + list(NOUNS[:10]) + grammar.pseudo[:3 * (THESAURUS_ENTRIES - 20):3]
    thesaurus = []
    for head in heads:
        synonyms = [w for w in rng.sample(grammar.vocabulary, 3) if w != head]
        thesaurus.append(f"{head}\t{','.join(synonyms)}")
    _write_lines(out / "thesaurus.tsv", thesaurus)
    return {
        "images": len(images),
        "captions": n,
        "dictionary_words": len(dictionary),
        "alphabet": alphabet,
        "planted_types": {k: len(v) for k, v in planted.items()},
        "distance1_types": planted["distance1"],
        "distance2_types": planted["distance2"],
        "nomatch_types": planted["nomatch"],
        "override_keys": override_keys,
        "merge_rules": len(merges),
        "merge_occurrences": MERGE_OCCURRENCES,
        "exact_duplicates": EXACT_DUPLICATES,
        "styled_duplicates": STYLED_DUPLICATES,
        "all_duplicate_records": len(dropped),
        "thesaurus_entries": len(thesaurus),
    }


# ------------------------------------------------------------ backtranslate-pool

BT_IMAGES = 80
BT_HOPS = ("es", "de", "fr")
# The service delay and the fault rates are stand-ins, not measured from any
# translation service. The delay is long enough that the host's wake-up
# latency after a sleep stays a small share of a call, which keeps the timings
# steady; it also makes the workload mostly waiting (``translate.wait_share``).
BT_SERVICE_DELAY_S = 0.005
BT_PERMANENT_CAPTIONS = 10
BT_TRANSIENT_PER_MILLE = 30
BT_MAX_RETRIES = 2


def _gen_backtranslate(rng: random.Random, images: list[dict], out: Path) -> dict:
    chosen = sorted(rng.sample(range(len(images)), BT_IMAGES))
    rows = []
    for i in chosen:
        img = images[i]
        captions = [s["raw"] for s in img["sentences"]]
        rows.append({"image_id": img["filename"], "split": img["split"], "scene": img["class"],
                     "captions": captions})
    _write_jsonl(out / "slice.jsonl", rows)
    # The stub fails these captions permanently on the first leg. They occur
    # once each in the slice, so exactly this many captions are lost.
    counts: dict[str, int] = {}
    for row in rows:
        for text in row["captions"]:
            counts[text] = counts.get(text, 0) + 1
    permanent = rng.sample(sorted(t for t, n in counts.items() if n == 1), BT_PERMANENT_CAPTIONS)
    _write_json(out / "faults.json", {"permanent": permanent, "transient_per_mille": BT_TRANSIENT_PER_MILLE})
    return {
        "images": len(rows),
        "captions": len(rows) * CAPTIONS_PER_IMAGE,
        "hops": list(BT_HOPS),
        "service_delay_s": BT_SERVICE_DELAY_S,
        "permanent_captions": BT_PERMANENT_CAPTIONS,
        "transient_per_mille": BT_TRANSIENT_PER_MILLE,
        "max_retries": BT_MAX_RETRIES,
    }


WORKLOADS = ("rsicd-analyze", "noisy-correct", "backtranslate-pool")


def generate(workload: str, seed: int, out_dir: str | Path) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``out_dir``; return the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    grammar = _Grammar(rng)
    images = _images(rng, grammar)
    if workload == "rsicd-analyze":
        manifest = _gen_analyze(rng, grammar, images, out)
    elif workload == "noisy-correct":
        manifest = _gen_noisy(rng, grammar, images, out)
    else:
        manifest = _gen_backtranslate(rng, images, out)
    manifest.update(workload=workload, seed=seed)
    manifest["input_sha256"] = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir()) if p.is_file()
    }
    return manifest
