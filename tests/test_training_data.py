"""Training-data operator tests: dedup correctness vs brute force, ANN
recall, lang-ID accuracy, multimodal plumbing."""

import numpy as np
import pyarrow as pa
import pytest

from kgw_ray.sources.readers import read_table


def test_minhash_signature_jaccard_estimate():
    """Minhash agreement rate estimates Jaccard (property of the scheme)."""
    from kgw_ray.stages.dedup import minhash_signature, shingle_hashes

    a = "the quick brown fox jumps over the lazy dog " * 5
    b = "the quick brown fox leaps over the lazy dog " * 5
    sa, sb = shingle_hashes(a), shingle_hashes(b)
    inter = np.intersect1d(sa, sb).size
    true_j = inter / (len(sa) + len(sb) - inter)
    ma, mb = minhash_signature(sa, 256), minhash_signature(sb, 256)
    est = (ma == mb).mean()
    assert abs(est - true_j) < 0.15


def test_minhash_dedup_matches_bruteforce(sf_smoke):
    """LSH+verify survivors == brute-force O(n²) Jaccard dedup survivors.

    At threshold 0.5 with 16 bands × 4 rows the LSH detection probability at
    J=0.5 is ~0.8 per pair, but verified pairs are exact — compare against
    brute force on the same corpus and allow only missed-pair slack."""
    from kgw_ray.stages.dedup import minhash_dedup_keep, shingle_hashes

    docs = read_table(sf_smoke, "documents", columns=["doc_id", "text"])
    df = docs.to_pandas().sort_values("doc_id")
    ids = df["doc_id"].to_numpy()
    sh = [shingle_hashes(t) for t in df["text"]]

    # brute-force pair set at J >= 0.5
    true_pairs = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            sa, sb = sh[i], sh[j]
            if len(sa) == 0 or len(sb) == 0:
                continue
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            if inter / (len(sa) + len(sb) - inter) >= 0.5:
                true_pairs.add((ids[i], ids[j]))

    survivors = set(
        minhash_dedup_keep(docs, threshold=0.5).to_pandas()["doc_id"]
    )
    # survivors must include every doc not in any true pair
    paired = {x for p in true_pairs for x in p}
    assert set(ids) - paired <= survivors
    # and never keep two docs of the same true pair IF LSH found the pair
    # (verified pairs are a subset of true pairs: no false positives)
    dropped = set(ids) - survivors
    for d in dropped:
        assert d in paired


def test_minhash_shuffle_verify_path_parity(sf_smoke):
    """The distributed shuffle-join verify path (forced) must produce the
    same survivor set as the broadcast verify path — the 10^12-doc plan
    under the same gate as the default."""
    from kgw_ray.stages.dedup import minhash_dedup_keep

    docs = read_table(sf_smoke, "documents", columns=["doc_id", "text"])
    broadcast = set(minhash_dedup_keep(docs, threshold=0.5).to_pandas()["doc_id"])
    shuffled = set(
        minhash_dedup_keep(docs, threshold=0.5, force_shuffle_verify=True)
        .to_pandas()["doc_id"]
    )
    assert broadcast == shuffled


def test_minhash_distributed_drop_path_parity(sf_smoke):
    """The at-scale drop-set plan (distributed connected components +
    hash-partitioned left_anti survivor filter, both forced via the limit
    knobs) must produce the same survivor set as the driver union-find +
    broadcast anti-join fast path."""
    from kgw_ray.stages.dedup import minhash_dedup_keep

    docs = read_table(sf_smoke, "documents", columns=["doc_id", "text"])
    fast = set(minhash_dedup_keep(docs, threshold=0.5).to_pandas()["doc_id"])
    distributed = set(
        minhash_dedup_keep(
            docs, threshold=0.5, driver_pair_limit=0, drop_broadcast_limit=0
        ).to_pandas()["doc_id"]
    )
    assert fast == distributed


def test_exact_jaccard_pairs_paths_agree(sf_smoke):
    """The standalone inverted-index Jaccard operator: broadcast-sizes and
    hash-join-sizes paths must agree with each other and with brute force
    over per-doc shingle sets."""
    import numpy as np

    from kgw_ray.stages.dedup import exact_jaccard_pairs, shingle_hashes

    docs = read_table(sf_smoke, "documents", columns=["doc_id", "text"])
    df = docs.to_pandas().sort_values("doc_id")
    ids = df["doc_id"].to_numpy()
    sh = [shingle_hashes(t) for t in df["text"]]
    truth = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            sa, sb = sh[i], sh[j]
            if len(sa) == 0 or len(sb) == 0:
                continue
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            if inter / (len(sa) + len(sb) - inter) >= 0.5:
                truth.add((int(ids[i]), int(ids[j])))

    bc = exact_jaccard_pairs(docs, threshold=0.5).to_pandas()
    hj = exact_jaccard_pairs(
        docs, threshold=0.5, size_broadcast_limit=0
    ).to_pandas()
    got_bc = set(zip(bc["a"].astype(int), bc["b"].astype(int)))
    got_hj = set(zip(hj["a"].astype(int), hj["b"].astype(int)))
    assert got_bc == got_hj == truth


def _chain_recall(dup_positions, m=300, max_bucket=64):
    """Measured recall of the _bucket_pairs chain cap on one degenerate
    bucket of m docs: true duplicates sit at ``dup_positions``; only
    dup↔dup chain links survive verify (Jaccard of dup vs non-dup is 0).
    Returns 1.0 if the dup group stays one component, else the fraction of
    mergeable dups actually merged."""
    import numpy as np

    from kgw_ray.stages.dedup import _bucket_pairs

    ids = np.arange(m, dtype=np.int64)
    pairs = _bucket_pairs(ids, np.zeros(m, dtype=np.uint64), max_bucket)
    dups = set(int(p) for p in dup_positions)
    kept = [
        (a, b) for a, b in zip(pairs["a"], pairs["b"]) if a in dups and b in dups
    ]
    parent = {d: d for d in dups}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in kept:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[rb] = ra
    n_comp = len({find(d) for d in dups})
    # recall in merged-doc terms: |dups| - n_comp merges achieved of |dups| - 1
    return (len(dups) - n_comp) / (len(dups) - 1)


def test_chain_cap_recall_on_degenerate_buckets():
    """Quantifies the documented stride-1/2 chain truncation trade on a
    bucket past max_bucket: duplicates interleaved with ONE false collision
    between them (the adversarial alternation) keep full recall via the
    stride-2 links; two interleaved non-dups between every pair of true
    dups (beyond the stride horizon) lose the chain entirely. The numbers
    pin the boundary the dedup.py docstring describes."""
    # alternation: dups at even positions — stride-2 links connect them all
    assert _chain_recall(range(0, 300, 2)) == 1.0
    # every 3rd position: no stride-1/2 link joins two dups — recall 0
    assert _chain_recall(range(0, 300, 3)) == 0.0
    # in-cap buckets always expand full triu pairs: recall 1 regardless
    assert _chain_recall(range(0, 60, 3), m=60) == 1.0


def test_exact_dedup_counts(sf_smoke):
    from kgw_ray.stages.dedup import exact_dedup_keep

    docs = read_table(sf_smoke, "documents", columns=["doc_id", "text"])
    n_distinct = docs.to_pandas()["text"].nunique()
    keep = exact_dedup_keep(docs)
    assert keep.count() == n_distinct


def test_simhash_band_extraction_matches_hash():
    """simhash_batch's band columns must be the 4 contiguous 16-bit slices
    of the simhash column (the pigeonhole banding guarantee is only as
    good as this extraction — a shifted mask would silently break
    blocking while any tautological band-compare test stayed green)."""
    from kgw_ray.stages.dedup import simhash64, simhash_batch

    texts = [
        "the quick brown fox jumps over the lazy dog extra pad",
        "alpha beta gamma delta epsilon zeta",
    ]
    batch = pa.table(
        {"doc_id": pa.array([0, 1], pa.int64()), "text": texts}
    )
    out = simhash_batch(batch)
    for i, t in enumerate(texts):
        h = simhash64(t.split())
        assert out.column("simhash")[i].as_py() == h
        for b in range(4):
            assert out.column(f"band{b}")[i].as_py() == (h >> (16 * b)) & 0xFFFF


def test_simhash_pairs_bounded_on_degenerate_corpus():
    """The web-scale skew guard: a degenerate corpus (every doc identical →
    one bucket per band holding ALL docs) must emit O(m) chain pairs, not
    O(m²) triu pairs, and the chain must keep the duplicate component
    connected."""
    import ray.data as rd

    from kgw_ray.stages.dedup import simhash_near_dup_pairs

    m = 400
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(m)), pa.int64()),
                "text": ["the same boilerplate text repeated here"] * m,
            }
        )
    )
    pairs = simhash_near_dup_pairs(docs, max_bucket=64).to_pandas()
    # stride-1 + stride-2 chains: ~2m-3 pairs per band, identical across
    # bands so they dedup to ~2m-3 — O(m), never the O(m^2) triu
    assert m - 1 <= len(pairs) < 3 * m, len(pairs)
    assert (pairs["hamming"] == 0).all()
    # connectivity: union-find over emitted pairs → one component
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["a"], pairs["b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[ra] = rb
    assert len({find(i) for i in range(m)}) == 1


def test_simhash_pairs_find_near_dups():
    """Non-degenerate path: near-identical docs pair up with small Hamming,
    unrelated docs don't."""
    import ray.data as rd

    from kgw_ray.stages.dedup import simhash_near_dup_pairs

    # 25 distinct words × 16 reps: every simhash bit-sum is a multiple of 16
    # away from an odd total, so changing ONE occurrence (shift ≤ 2) cannot
    # flip any bit — the near doc collides at Hamming 0 by construction
    base = [f"w{i}" for i in range(25)] * 16
    near = list(base)
    near[3] = "CHANGED"
    other = [f"v{i}" for i in range(25)] * 16
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": [" ".join(base), " ".join(near), " ".join(other)],
            }
        )
    )
    pairs = simhash_near_dup_pairs(docs).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["a"], pairs["b"])}
    assert (0, 1) in got
    assert (0, 2) not in got and (1, 2) not in got


def test_ann_ivf_recall(sf_smoke):
    """Reduced-probe IVF must reach ≥0.6 mean recall vs brute force."""
    from kgw_ray.pipelines.training_data import ann_cosine_topk, ann_ivf_topk_probe

    exact = ann_cosine_topk(sf_smoke).to_pandas()
    approx = ann_ivf_topk_probe(sf_smoke).to_pandas()
    recalls = []
    for q in exact["query_id"].unique():
        e = set(exact[exact["query_id"] == q]["vec_id"])
        a = set(approx[approx["query_id"] == q]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.6, recalls


def test_ivf_auto_cells_scale_and_recall():
    """n_cells=None scales to ~sqrt(N) (must exceed the old fixed 16 on a
    2k corpus) and top-k with proportionally scaled nprobe keeps recall."""
    import ray.data as rd

    from kgw_ray.stages.similarity import IVFIndex, brute_force_topk

    rng = np.random.default_rng(7)
    n, d = 2000, 16
    M = rng.normal(size=(n, d))
    emb = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array(M.tolist(), pa.list_(pa.float64())),
            }
        )
    )
    idx = IVFIndex.build(emb)
    assert idx.n_cells > 16, idx.n_cells  # sqrt(2000) ≈ 45
    Q, qids = M[:3], np.arange(3)
    exact = brute_force_topk(emb, Q, qids, k=10).to_pandas()
    approx = idx.topk(Q, qids, k=10, nprobe=max(4, -(-idx.n_cells // 3))).to_pandas()
    recalls = []
    for q in range(3):
        e = set(exact[exact["query_id"] == q]["vec_id"])
        a = set(approx[approx["query_id"] == q]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.6, recalls


def test_ivf_near_dup_cell_cap_bounds_fanout():
    """A degenerate corpus (all vectors identical → one cell) must emit
    O(m·cap) chunked pairs, never the O(m²) all-pairs expansion."""
    import ray.data as rd

    from kgw_ray.stages.similarity import ivf_near_dup_pairs

    m = 600
    v = [1.0, 0.0, 0.0, 0.0]
    emb = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(m), pa.int64()),
                "embedding": pa.array([v] * m, pa.list_(pa.float64())),
            }
        )
    )
    pairs = ivf_near_dup_pairs(emb, threshold=0.9, n_cells=4, cell_cap=100).to_pandas()
    # 6 chunks of ≤100 → ≤ 6 * C(100,2) pairs, far under C(600,2) = 179700
    assert 0 < len(pairs) <= 6 * (100 * 99) // 2
    assert (pairs["cosine"] >= 0.9).all()


def test_embedding_near_dup_auto_routes_to_ivf_past_limit():
    """Past broadcast_limit the exact path must hand off to the IVF scale
    path (the joins.py size-hybrid convention) instead of broadcasting a
    matrix that cannot fit — and still return thresholded pairs."""
    import numpy as np
    import ray.data as rd

    from kgw_ray.stages.dedup import embedding_near_dup_pairs

    rng = np.random.default_rng(7)
    base = rng.normal(size=(40, 8))
    M = np.concatenate([base, base + rng.normal(scale=1e-3, size=base.shape)])
    emb = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(len(M)), pa.int64()),
                "embedding": pa.array(M.tolist(), pa.list_(pa.float64())),
            }
        )
    )
    exact = embedding_near_dup_pairs(emb, threshold=0.99).to_pandas()
    routed = embedding_near_dup_pairs(emb, threshold=0.99, broadcast_limit=10).to_pandas()
    assert len(exact) >= 40  # each vector pairs with its jittered twin
    assert (routed["cosine"] >= 0.99).all()
    # the IVF route is a recall trade, never a precision one
    exact_pairs = set(zip(exact["a"], exact["b"]))
    assert set(zip(routed["a"], routed["b"])) <= exact_pairs
    assert len(routed) > 0


def test_lang_id_deterministic_and_correct_on_real_markers(sf_smoke):
    """The synthetic corpus's ``lang`` column is uncorrelated with its text
    (all docs share one English-ish vocabulary), so accuracy-vs-column is
    meaningless; instead: (a) distributed output == single-process output,
    (b) classifier is right on texts with genuine language markers."""
    from kgw_ray.pipelines.training_data import text_lang_id
    from kgw_ray.stages.textstats import LangId

    pred = text_lang_id(sf_smoke).to_pandas().sort_values("doc_id")
    docs = (
        read_table(sf_smoke, "documents", columns=["doc_id", "text"])
        .to_pandas()
        .sort_values("doc_id")
    )
    li = LangId()
    local = [li.ident_one(t)[0] for t in docs["text"]]
    assert list(pred["lang_pred"]) == local

    assert li.ident_one("the cat and the dog of the house")[0] == "en"
    assert li.ident_one("le chat et la maison des gens est dans")[0] == "fr"
    assert li.ident_one("el gato y la casa de los hombres es")[0] == "es"
    assert li.ident_one("der Hund und die Katze von dem Haus ist")[0] == "de"
    assert li.ident_one("这是一个中文句子的测试文本")[0] == "zh"


def test_quality_stats_vectorized_sanity():
    from kgw_ray.stages.textstats import quality_stats_batch

    b = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": ["the cat, sat!", ""]})
    out = quality_stats_batch(b).to_pylist()
    r = out[0]
    assert r["n_tokens"] == 3
    assert r["stopword_ratio"] == pytest.approx(1 / 3, abs=1e-6)
    assert r["punct_ratio"] == pytest.approx(2 / 13, abs=1e-6)
    assert out[1]["n_tokens"] == 0 and out[1]["quality_score"] == pytest.approx(0.3)


def test_repetition_stats_constructed():
    """Exact Gopher signals on hand-computable docs, including the
    doc-boundary mask (no cross-doc n-grams) and empty/whitespace docs."""
    from kgw_ray.stages.textstats import repetition_stats_batch

    b = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": [
                "a b a b a",  # bigrams: ab,ba,ab,ba → 4 grams, 2 distinct
                "x y z",      # no repetition
                "",           # empty
                "  a  ",      # whitespace-padded single token
            ],
        }
    )
    out = {r["doc_id"]: r for r in repetition_stats_batch(b).to_pylist()}
    r1 = out[1]
    assert r1["n_tokens"] == 5 and r1["n_2grams"] == 4
    assert r1["dup_2grams"] == 2 and r1["top_2gram_count"] == 2
    # trigrams: "a b a","b a b","a b a" → 3 grams, 2 distinct
    assert r1["n_3grams"] == 3 and r1["dup_3grams"] == 1
    r2 = out[2]
    assert r2["dup_2grams"] == 0 and r2["top_2gram_count"] == 1
    r3 = out[3]
    assert r3["n_tokens"] == 0 and r3["n_2grams"] == 0
    assert r3["top_2gram_count"] == 0 and r3["dup_3grams"] == 0
    # doc 4: 1 token after empty-split filtering; "a b" must NOT leak from
    # doc 1's tokens across the boundary
    r4 = out[4]
    assert r4["n_tokens"] == 1 and r4["n_2grams"] == 0 and r4["top_2gram_count"] == 0


def test_rare_token_stats_finds_planted_token(sf_smoke):
    """The synthetic corpus plants one rare vocab word ('dup'); the
    two-pass corpus-frequency op must count exactly its occurrences."""
    from kgw_ray.pipelines.training_data import text_rare_token_stats

    df = text_rare_token_stats(sf_smoke).to_pandas()
    docs = read_table(sf_smoke, "documents", columns=["doc_id", "text"]).to_pandas()
    toks = docs.set_index("doc_id")["text"].str.split()
    vc = toks.explode().value_counts()
    rare = set(vc[vc < vc.sum() / 1000].index)
    expected = toks.apply(lambda t: sum(1 for w in t if w in rare))
    got = df.set_index("doc_id")["n_rare_tokens"]
    assert got.sort_index().equals(expected.sort_index().astype("int64"))


def test_rolling_fingerprint_shift_invariance():
    """Winnowing min-hash is stable under prefix insertion when the window
    set overlaps (common-substring property)."""
    from kgw_ray.stages.textstats import rolling_fingerprint

    toks = [f"w{i}" for i in range(50)]
    f1 = rolling_fingerprint(toks)
    f2 = rolling_fingerprint(["zzz"] * 3 + toks)
    # the min window of f1 is still present among f2's windows
    # (not strictly guaranteed equal, but the min can only decrease)
    assert f2 <= f1


def test_media_plumbing(sf_smoke):
    from kgw_ray.pipelines.training_data import media_decode_features, media_metadata

    meta = media_metadata(sf_smoke).to_pandas()
    assert len(meta) > 0  # .all() on an empty frame is vacuously True
    assert (meta["n_bytes"] > 0).all()
    assert meta["sha256"].str.len().eq(64).all()

    # crc32 lives in the stage (gated projection drops it — no DuckDB crc32)
    from kgw_ray.stages.multimodal import media_metadata_batch, synth_media_dataset

    raw = synth_media_dataset(sf_smoke).map_batches(
        media_metadata_batch, batch_format="pyarrow", batch_size=64
    ).to_pandas()
    assert (raw["crc32"] >= 0).all() and raw["crc32"].nunique() > 1

    feats = media_decode_features(sf_smoke).to_pandas()
    assert len(feats) == len(meta)
    # widened feature columns: real shape + intensity stats
    assert set(feats.columns) >= {"height", "width", "mean_r", "std_b"}
    assert (feats["height"] >= 12).all() and (feats["width"] >= 16).all()
    assert feats["mean_r"].between(0, 1).all()


def test_media_decode_stub_raises():
    """decoder=None models a format whose native library is absent — the
    honest-stub contract raises with guidance on the first batch."""
    from kgw_ray.stages.multimodal import DecodeImage

    dec = DecodeImage(decoder=None)
    with pytest.raises(NotImplementedError):
        dec(pa.table({"payload": pa.array([b"x"], pa.binary())}))


def test_ppm_roundtrip_and_features():
    """encode→decode is the identity for arbitrary (h, w, 3) uint8 rasters
    (including header-comment handling), and features carry real shape +
    intensity stats."""
    import numpy as np

    from kgw_ray.stages.multimodal import decode_ppm, encode_ppm, ppm_features

    rng = np.random.default_rng(7)
    for h, w in [(1, 1), (3, 5), (12, 33)]:
        pix = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        out = decode_ppm(encode_ppm(pix))
        assert out.shape == (h, w, 3) and (out == pix).all()
        f = ppm_features(out)
        assert f[0] == h and f[1] == w and len(f) == 8
        assert abs(f[2] - pix[..., 0].mean() / 255.0) < 1e-5
    # comment + flexible whitespace in the header (netpbm grammar)
    pix = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    hdr = b"P6 # comment\n# another\n 2\t2 \n255\n" + pix.tobytes()
    assert (decode_ppm(hdr) == pix).all()
    # malformed payloads fail loudly, never mis-decode
    with pytest.raises(ValueError):
        decode_ppm(b"P5\n2 2\n255\n" + b"\0" * 12)
    with pytest.raises(ValueError):
        decode_ppm(encode_ppm(pix)[:-1])


def test_media_resize_and_frame_sample(sf_smoke):
    """Resize emits valid P6 payloads at the target size (decodable and
    sampled from the source raster); frame sampling keeps every 4th chunk."""
    import numpy as np

    from kgw_ray.pipelines.training_data import media_frame_sample, media_resize
    from kgw_ray.stages.multimodal import decode_ppm, resize_ppm

    out = media_resize(sf_smoke).to_pandas()
    assert len(out) > 0
    assert (out["width"] == 16).all() and (out["height"] == 16).all()
    pix = decode_ppm(bytes(out["payload"].iloc[0]))
    assert pix.shape == (16, 16, 3)

    # kernel correctness: identity when sizes match; exact sampling grid
    src = np.arange(4 * 6 * 3, dtype=np.uint8).reshape(4, 6, 3)
    assert (resize_ppm(src, 4, 6) == src).all()
    half = resize_ppm(src, 2, 3)
    assert (half == src[[1, 3]][:, [1, 3, 5]]).all()

    frames = media_frame_sample(sf_smoke).to_pandas()
    assert len(frames) > 0
    assert (frames["frame_idx"] % 4 == 0).all()


def test_shuffle_is_permutation(sf_smoke):
    from kgw_ray.pipelines.training_data import shuffle_documents

    a = shuffle_documents(sf_smoke).to_pandas()["doc_id"].tolist()
    assert sorted(a) == list(range(len(a)))  # same multiset
    assert a != sorted(a)  # actually permuted
    b = shuffle_documents(sf_smoke).to_pandas()["doc_id"].tolist()
    assert a == b  # seeded → deterministic


def test_minhash_dedup_dupfree_corpus_keeps_all():
    """Zero LSH candidates (every doc distinct) must return every doc, not
    crash on the schema-less empty pair pull (found by review)."""
    import ray.data as rd

    from kgw_ray.stages.dedup import minhash_dedup_keep

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": [
                    "alpha bravo charlie delta echo foxtrot golf hotel",
                    "one two three four five six seven eight nine",
                    "red orange yellow green blue indigo violet pink",
                    "cat dog bird fish horse cow sheep goat llama",
                ],
            }
        )
    )
    out = set(minhash_dedup_keep(docs, threshold=0.5).to_pandas()["doc_id"])
    assert out == {1, 2, 3, 4}


def test_approx_quantiles_close_to_exact(sf_smoke):
    """Mergeable per-block quantile sketch vs exact quantiles on the events
    value column — within the documented ~1/grid error."""
    from kgw_ray.stages.agg import approx_quantiles

    ds = read_table(sf_smoke, "events", columns=["value"])
    exact = ds.to_pandas()["value"]
    got = approx_quantiles(ds, "value", (0.1, 0.5, 0.95))
    spread = float(exact.quantile(0.99) - exact.quantile(0.01))
    for q, v in got.items():
        assert abs(v - float(exact.quantile(q))) <= 0.05 * spread, (q, v)


def test_approx_quantiles_many_small_blocks():
    """Merging many tiny block sketches (blocks smaller than the grid) must
    stay exact-ish — the degenerate per-block path."""
    import ray.data as rd

    from kgw_ray.stages.agg import approx_quantiles

    vals = np.arange(1000, dtype=np.float64)
    ds = rd.from_arrow(pa.table({"value": pa.array(vals)})).repartition(40)
    got = approx_quantiles(ds, "value", (0.5,))
    assert abs(got[0.5] - 499.5) < 25


def test_topk_tie_break_across_block_boundary():
    """Exact-duplicate vectors straddling the local top-k boundary must
    resolve by vec_id ascending, matching the oracle's row_number order
    (review: bare argpartition picked boundary ties arbitrarily)."""
    import ray.data as rd

    from kgw_ray.stages.similarity import brute_force_topk

    # 12 identical vectors; k=10 must keep ids 0..9 exactly
    v = [1.0, 0.0]
    emb = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(12), pa.int64()),
                "embedding": pa.array([v] * 12, pa.list_(pa.float64())),
            }
        )
    )
    out = brute_force_topk(emb, np.array([v]), np.array([0]), k=10).to_pandas()
    assert list(out["vec_id"]) == list(range(10))
    assert list(out["rank"]) == list(range(1, 11))


def test_topk_saturated_tie_window_falls_back_exact():
    """More boundary ties than the argpartition candidate margin (one
    block, 200 identical vectors): the per-query exact fallback must still
    keep the k smallest ids."""
    from kgw_ray.stages.similarity import _topk_partial

    n = 200
    V = np.tile(np.array([[1.0, 0.0]]), (n, 1))
    bids = np.arange(n)[::-1].copy()  # descending ids stress the tie-break
    df = _topk_partial(bids, V, np.array([[1.0, 0.0]]), np.array([7]), k=10)
    assert list(df["vec_id"]) == list(range(10))
    assert (df["query_id"] == 7).all()


# ---------------------------------------------------------------------------
# Corpus-level ops (stages/corpus.py)
# ---------------------------------------------------------------------------


def _tbl(rows):
    import pyarrow as pa

    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )


def test_decontaminate_flags_exact_leak():
    """A corpus doc containing a benchmark doc's 8-gram verbatim is flagged;
    an unrelated doc is not; the eval doc itself is excluded."""
    import numpy as np

    from kgw_ray.stages.corpus import decontaminate_batch
    from kgw_ray.stages.dedup import batch_shingle_hashes

    bench_text = "alpha beta gamma delta epsilon zeta eta theta iota"
    bench = np.sort(np.unique(batch_shingle_hashes([bench_text], 8)[0]))
    leak = "x y " + "alpha beta gamma delta epsilon zeta eta theta" + " z"
    clean = "one two three four five six seven eight nine ten"
    out = decontaminate_batch(_tbl([(1, leak), (2, clean)]), bench, 8).to_pydict()
    assert out["contaminated"] == [1, 0]
    assert out["n_contaminated"][0] >= 1
    # n_grams counts DISTINCT win-8 grams: len(w) - 8 + 1 for 10 distinct toks
    assert out["n_grams"][1] == 3


def test_decontaminate_short_doc_whole_gram():
    """Docs shorter than k use k = len(w) (the shingle convention): an
    identical short doc in both sets is a contamination hit."""
    import numpy as np

    from kgw_ray.stages.corpus import decontaminate_batch
    from kgw_ray.stages.dedup import batch_shingle_hashes

    bench = np.sort(np.unique(batch_shingle_hashes(["tiny doc"], 8)[0]))
    out = decontaminate_batch(
        _tbl([(1, "tiny doc"), (2, "tiny other")]), bench, 8
    ).to_pydict()
    assert out["contaminated"] == [1, 0]


def test_ngram_topk_matches_counter(sf_smoke):
    """Distributed bigram counts equal a single-process Counter (total-order
    ties included)."""
    import collections

    from kgw_ray.pipelines.training_data import _docs, ngram_topk

    got = ngram_topk(sf_smoke, k=15).to_pydict()
    cnt = collections.Counter()
    for row in _docs(sf_smoke).take_all():
        w = (row["text"] or "").split()
        cnt.update(" ".join(p) for p in zip(w, w[1:]))
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:15]
    assert list(zip(got["gram"], got["n"])) == want


def test_normalize_idempotent_and_casefolds():
    import pyarrow as pa

    from kgw_ray.stages.corpus import normalize_batch

    t = _tbl([(1, "  A  B\t\nC  "), (2, "a b c")])
    out = normalize_batch(t).to_pydict()
    # both normalize to "a b c" → identical md5, length 5
    assert out["norm_md5"][0] == out["norm_md5"][1]
    assert out["n_norm_chars"] == [5, 5]


def test_stratified_rates_and_determinism():
    """Mixing keeps ~1/denom per stratum and is exactly reproducible."""
    import numpy as np
    import pyarrow as pa

    from kgw_ray.stages.corpus import stratified_keep_batch

    n = 3000
    langs = ["en", "es", "zh"] * (n // 3)
    t = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "lang": pa.array(langs, pa.string()),
        }
    )
    a = stratified_keep_batch(t, {"en": 1, "es": 2, "zh": 3}, 4).to_pydict()
    b = stratified_keep_batch(t, {"en": 1, "es": 2, "zh": 3}, 4).to_pydict()
    assert a == b
    kept = {lang: 0 for lang in ("en", "es", "zh")}
    for lang in a["lang"]:
        kept[lang] += 1
    assert kept["en"] == n // 3  # denom 1 keeps everything
    assert abs(kept["es"] - n / 6) < n / 20
    assert abs(kept["zh"] - n / 9) < n / 20


def test_tfidf_prefers_rare_terms():
    """With equal tf, the rarer term wins; ties break lexicographically."""
    import numpy as np

    from kgw_ray.stages.corpus import df_partial, tfidf_batch

    t = _tbl([(1, "common rare"), (2, "common other"), (3, "common also")])
    p = df_partial(t).to_pydict()
    vocab = np.array(p["tok"], dtype=object)
    order = np.argsort(vocab)
    vocab = vocab[order]
    dfs = np.array(p["df"], dtype=np.int64)[order]
    out = tfidf_batch(t, vocab, dfs).to_pydict()
    # "common" has df 3, each rare term df 1 → rare term wins per doc
    assert out["term"] == ["rare", "other", "also"]
    assert out["df"] == [1, 1, 1]
    assert out["score_micro"] == [1_000_000, 1_000_000, 1_000_000]


def test_trunc_div_matches_duckdb_semantics():
    """Centroid updates divide like DuckDB ``//`` (truncate toward zero),
    not numpy floor division."""
    import numpy as np

    from kgw_ray.stages.similarity import _trunc_div

    a = np.array([7, -7, 6, -6, 0], dtype=np.int64)
    b = np.array([2, 2, 3, 3, 5], dtype=np.int64)
    assert list(_trunc_div(a, b)) == [3, -3, 2, -2, 0]


def test_kmeans_separates_blobs(ray_session):
    """Two well-separated blobs end up in different clusters, all members
    of a blob in the same one; repeated runs agree exactly."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from kgw_ray.stages.similarity import kmeans_assignments

    rng = np.random.default_rng(7)
    a = rng.normal(0.0, 0.01, size=(20, 4)) + np.array([1, 1, 1, 1])
    b = rng.normal(0.0, 0.01, size=(20, 4)) + np.array([-1, -1, -1, -1])
    M = np.vstack([a, b]).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(range(40), pa.int64()),
            "embedding": pa.array([list(map(float, r)) for r in M]),
        }
    )
    out1 = kmeans_assignments(rd.from_arrow(t), k=2, iters=3).to_pandas()
    out2 = kmeans_assignments(rd.from_arrow(t), k=2, iters=3).to_pandas()
    out1 = out1.sort_values("vec_id").reset_index(drop=True)
    out2 = out2.sort_values("vec_id").reset_index(drop=True)
    assert out1.equals(out2)
    first, second = set(out1["cluster"][:20]), set(out1["cluster"][20:])
    assert len(first) == 1 and len(second) == 1 and first != second


def test_kmeans_empty_input_typed(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from kgw_ray.stages.similarity import kmeans_assignments

    empty = pa.table(
        {"vec_id": pa.array([], pa.int64()), "embedding": pa.array([], pa.list_(pa.float32()))}
    )
    out = kmeans_assignments(rd.from_arrow(empty), k=4, iters=2)
    # NB: .to_pandas() on an empty Dataset drops all columns — assert on
    # the dataset schema, which the typed empty table preserves
    assert out.schema().names == ["vec_id", "cluster"]
    assert out.count() == 0


def test_decontaminate_empty_eval_set(ray_session, tmp_path):
    """A corpus with no eval docs (no doc_id % 41 == 0) broadcasts a typed
    empty gram set: nothing is contaminated, nothing crashes."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from kgw_ray.pipelines.training_data import decontaminate_documents

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["a b c d e f g h i", "j k", ""], pa.string()),
            "lang": pa.array(["en"] * 3, pa.string()),
            "source": pa.array(["s"] * 3, pa.string()),
            "n_chars": pa.array([17, 3, 0], pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    out = decontaminate_documents(str(tmp_path)).to_pandas()
    assert len(out) == 3 and out["contaminated"].sum() == 0


def test_exact_quantiles_matches_sorted_selection(ray_session):
    """Histogram-refinement rank selection equals the sorted-array answer,
    including under a skew-degenerate bin that forces the recursion."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from kgw_ray.stages.agg import exact_quantiles

    rng = np.random.default_rng(3)
    v = np.concatenate(
        [np.full(30_000, 2.5), np.round(rng.uniform(0, 100, 5_000), 2)]
    )
    ds = rd.from_arrow(pa.table({"value": pa.array(v)}))
    got = exact_quantiles(ds, "value", [0.1, 0.5, 0.95], bins=32, pull_cap=2_000)
    sv = np.sort(v)
    want = {q: float(sv[int(np.ceil(q * len(v))) - 1]) for q in (0.1, 0.5, 0.95)}
    assert got == want


def test_exact_quantiles_empty_and_nan(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from kgw_ray.stages.agg import exact_quantiles

    empty = rd.from_arrow(pa.table({"value": pa.array([], pa.float64())}))
    assert exact_quantiles(empty, "value", [0.5]) == {0.5: None}
    withnan = rd.from_arrow(
        pa.table({"value": pa.array([np.nan, 1.0, 3.0, np.nan, 2.0])})
    )
    assert exact_quantiles(withnan, "value", [0.5]) == {0.5: 2.0}


def test_grouped_exact_quantiles_continuous(ray_session):
    """Per-group histogram refinement equals per-group sorted selection on
    a CONTINUOUS column (~n distinct values): NULL group keys, an
    all-NULL-value group, and a constant-heavy group with a tiny
    pull_cap that forces multi-level refinement."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from kgw_ray.stages.agg import grouped_exact_quantiles

    rng = np.random.default_rng(0)
    n = 20_000
    keys = rng.choice(["a", "b", "c", None], n, p=[0.5, 0.3, 0.15, 0.05])
    vals = rng.normal(size=n) * 100
    mask_c = keys == "c"
    vals[mask_c] = np.where(rng.random(mask_c.sum()) < 0.7, 5.0, vals[mask_c])
    vals[rng.random(n) < 0.02] = np.nan
    keys = np.concatenate([keys, np.array(["d"] * 5, dtype=object)])
    vals = np.concatenate([vals, [np.nan] * 5])
    ds = rd.from_arrow(
        pa.table(
            {
                "k": pa.array(keys.tolist(), pa.string()),
                "v": pa.array(vals, pa.float64()),
            }
        )
    ).repartition(8)
    out = grouped_exact_quantiles(
        ds, "k", "v", [0.25, 0.5, 0.9], bins=64, pull_cap=50, max_depth=4
    ).to_pandas()
    assert len(out) == 5  # a, b, c, NULL key, all-NULL d

    def expect(kv, q):
        m = pd.isna(pd.Series(keys)).to_numpy() if kv is None else keys == kv
        vv = np.sort(vals[m])
        vv = vv[~np.isnan(vv)]
        if len(vv) == 0:
            return None
        return vv[min(max(int(np.ceil(q * len(vv))), 1), len(vv)) - 1]

    for _, row in out.iterrows():
        kv = row["k"] if pd.notna(row["k"]) else None
        for q in (0.25, 0.5, 0.9):
            e, g = expect(kv, q), row[f"q{q}"]
            if e is None:
                assert pd.isna(g), (kv, q)
            else:
                assert g == e, (kv, q, g, e)


def test_grouped_exact_median_matches_sorted(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from kgw_ray.stages.agg import grouped_exact_median

    rng = np.random.default_rng(5)
    k = np.repeat(["a", "b", "c"], 4000)
    v = np.round(rng.uniform(0, 50, len(k)), 2)
    ds = rd.from_arrow(pa.table({"event_type": pa.array(k), "value": pa.array(v)}))
    got = grouped_exact_median(ds, "event_type", "value").to_pydict()
    want = {}
    for g in ("a", "b", "c"):
        sv = np.sort(v[k == g])
        want[g] = float(sv[int(np.ceil(0.5 * len(sv))) - 1])
    assert dict(zip(got["event_type"], got["median"])) == want


def test_kmv_sketch_accuracy_and_exact_smallset(ray_session):
    """KMV estimate within ~4 standard errors at k=1024; below k distinct
    it IS the exact count."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from kgw_ray.stages.agg import kmv_distinct

    rng = np.random.default_rng(11)
    vals = rng.integers(0, 40_000, size=120_000)  # ~38k distinct
    ds = rd.from_arrow(pa.table({"u": pa.array(vals)}))
    r = kmv_distinct(ds, "u", k=1024)
    true = len(np.unique(vals))
    assert abs(r["est_distinct"] - true) / true < 4 / np.sqrt(1024)
    small = rd.from_arrow(pa.table({"u": pa.array(list(range(100)) * 5)}))
    assert kmv_distinct(small, "u", k=1024)["est_distinct"] == 100


def test_bloom_no_false_negatives(ray_session):
    """Every inserted key passes the filter; absent keys are mostly
    rejected (fp rate ~1% at 10 bits/key — assert < 5%)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from kgw_ray.stages.joins import bloom_prefilter, build_bloom

    keys = np.arange(0, 20_000, 2, dtype=np.int64)  # evens inserted
    ds = rd.from_arrow(pa.table({"k": pa.array(keys)}))
    ref, m = build_bloom(ds, "k", len(keys))
    probe = pa.table({"k": pa.array(np.arange(20_000, dtype=np.int64))})
    out = bloom_prefilter(rd.from_arrow(probe), "k", ref, m).to_pandas()
    got = set(out["k"])
    assert set(keys) <= got  # no false negatives
    fp = len(got - set(keys)) / 10_000
    assert fp < 0.05


def test_funnel_survives_empty_middle_stage(ray_session, tmp_path):
    """view + purchase but ZERO click events: the empty middle stage must
    not crash the broadcast merge (review: schema drop on empty pull);
    everyone stalls at stage 1."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from kgw_ray.pipelines.relational import events_funnel

    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4], pa.int64()),
            "ts": pa.array(pd.to_datetime(
                ["2024-01-01", "2024-01-02", "2024-01-03", "2024-01-04"]
            ).astype("datetime64[us]")),
            "user_id": pa.array([7, 7, 8, 8], pa.int64()),
            "event_type": pa.array(
                ["view", "purchase", "view", "purchase"], pa.string()
            ),
            "value": pa.array([1.0, 2.0, 3.0, 4.0]),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    out = events_funnel(str(tmp_path)).to_pandas().sort_values("user_id")
    assert list(out["stage_reached"]) == [1, 1]
    assert out["t_click"].isna().all() and out["t_purchase"].isna().all()


def test_grouped_median_keeps_null_group(ray_session):
    """A NULL group key is a group (SQL GROUP BY semantics — review)."""
    import pyarrow as pa
    import ray.data as rd

    from kgw_ray.stages.agg import grouped_exact_median

    t = pa.table(
        {
            "event_type": pa.array(["click", None, None, "click"], pa.string()),
            "value": pa.array([1.0, 2.0, 3.0, 4.0]),
        }
    )
    out = grouped_exact_median(rd.from_arrow(t), "event_type", "value")
    got = dict(zip(out["event_type"].to_pylist(), out["median"].to_pylist()))
    assert got == {"click": 1.0, None: 2.0}


def test_latest_per_user_rejects_out_of_width_keys(ray_session, tmp_path):
    """An event_id outside the packed-key width contract fails loudly
    instead of silently corrupting the arg-max (review)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest as _pytest

    from kgw_ray.pipelines.relational import events_latest_per_user

    t = pa.table(
        {
            "event_id": pa.array([10**13], pa.int64()),
            "ts": pa.array(
                pd.to_datetime(["2024-01-01"]).astype("datetime64[us]")
            ),
            "user_id": pa.array([1], pa.int64()),
            "event_type": pa.array(["view"], pa.string()),
            "value": pa.array([1.0]),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    with _pytest.raises(Exception, match="packed-key"):
        events_latest_per_user(str(tmp_path)).to_pandas()


def test_fold_driver_and_exchange_paths_agree(ray_session):
    """driver_limit=0 forces the exchange path; both paths must produce
    the same groups and values (sum/min/max, NULL keys included)."""
    import pyarrow as pa
    import ray.data as rd

    from kgw_ray.stages.agg import fold

    t = pa.table(
        {
            "k": pa.array(["a", "b", None, "a", "b", None], pa.string()),
            "v": pa.array([5, 1, 7, 3, 2, 4], pa.int64()),
        }
    )
    specs = [("v", "sum", "s"), ("v", "min", "mn"), ("v", "max", "mx")]
    fast = fold(rd.from_arrow(t), "k", specs).to_pandas()
    slow = fold(rd.from_arrow(t), "k", specs, driver_limit=0).to_pandas()

    def canon(df):
        return {
            (None if row.k is None or row.k != row.k else row.k): (
                int(row.s), int(row.mn), int(row.mx)
            )
            for row in df.itertuples()
        }

    assert canon(fast) == canon(slow) == {
        "a": (8, 3, 5), "b": (3, 1, 2), None: (11, 4, 7)
    }


# ---------------------------------------------------------------------------
# Cross-document duplicated spans (substring-level dedup)
# ---------------------------------------------------------------------------


def test_portable_window_hashes_match_direct_polynomial():
    """Vectorized modular-inverse prefix trick == the direct Σ h·B^j
    definition the SQL oracle computes, for several window sizes."""
    from kgw_ray.stages.corpus import portable_window_hashes

    rng = np.random.default_rng(7)
    th = rng.integers(0, 2**63, 50).astype(np.uint64)
    B, M = 1000003, 1 << 64
    for k in (1, 3, 8, 50):
        win = portable_window_hashes(th, k)
        exp = [
            sum(int(th[i + j]) * pow(B, k - 1 - j, M) for j in range(k)) % M
            for i in range(50 - k + 1)
        ]
        assert [int(x) for x in win] == exp
    assert len(portable_window_hashes(th[:3], 8)) == 0  # no short windows


def test_dup_spans_matches_bruteforce(sf_smoke):
    """text_dup_spans == an independent pure-Python re-derivation over
    token TUPLES (no hashing anywhere) — validates the hash-identity plan
    semantically, not just against the hash-replaying SQL."""
    from collections import Counter

    from kgw_ray.functions.tokenize import py_tokens
    from kgw_ray.pipelines.training_data import _DUP_SPAN_K, text_dup_spans

    k = _DUP_SPAN_K
    df = read_table(sf_smoke, "documents", columns=["doc_id", "text"]).to_pandas()
    cnt: Counter = Counter()
    toks = {}
    for did, text in zip(df["doc_id"], df["text"]):
        t = py_tokens(text)
        toks[int(did)] = t
        for i in range(len(t) - k + 1):
            cnt[tuple(t[i : i + k])] += 1
    expected = set()
    for did, t in toks.items():
        starts = [
            i + 1
            for i in range(len(t) - k + 1)
            if cnt[tuple(t[i : i + k])] >= 2
        ]
        cur = None  # [span_start, last_start, n_windows]
        for s in starts:
            if cur is not None and s <= cur[1] + k:
                cur[1] = s
                cur[2] += 1
            else:
                if cur is not None:
                    expected.add((did, cur[0], cur[1] + k - 1, cur[2]))
                cur = [s, s, 1]
        if cur is not None:
            expected.add((did, cur[0], cur[1] + k - 1, cur[2]))

    got = {
        (int(r.doc_id), int(r.span_start), int(r.span_end), int(r.n_windows))
        for r in text_dup_spans(sf_smoke).to_pandas().itertuples()
    }
    assert got == expected
    assert len(got) > 0  # the fixture corpus contains duplicated spans


def test_dup_spans_shuffle_path_parity(sf_smoke):
    """broadcast_limit=0 forces the exploded-window semi-join + per-doc
    merge scale path; it must emit exactly the broadcast path's spans."""
    from kgw_ray.pipelines.training_data import text_dup_spans

    def canon(ds):
        return sorted(
            (int(r.doc_id), int(r.span_start), int(r.span_end), int(r.n_windows))
            for r in ds.to_pandas().itertuples()
        )

    assert canon(text_dup_spans(sf_smoke)) == canon(
        text_dup_spans(sf_smoke, broadcast_limit=0)
    )


def test_dup_span_doc_stats_scale_path_parity(sf_smoke):
    """broadcast_limit=0 pins the compose path (span scale path → per-doc
    rollup → left hash join onto token counts); rows must equal the
    one-pass broadcast kernel's, including all-zero rows."""
    from kgw_ray.pipelines.training_data import text_dup_span_doc_stats

    def canon(ds):
        return sorted(
            (
                int(r.doc_id),
                int(r.n_tokens),
                int(r.dup_tokens),
                int(r.n_spans),
                int(r.dup_permille),
            )
            for r in ds.to_pandas().itertuples()
        )

    fast = canon(text_dup_span_doc_stats(sf_smoke))
    slow = canon(text_dup_span_doc_stats(sf_smoke, broadcast_limit=0))
    assert fast == slow
    assert any(r[2] > 0 for r in fast)  # fixture has duplicated coverage
    assert any(r[2] == 0 for r in fast)  # and clean docs (zero rows kept)


def test_pii_redact_fires_on_pii_corpus(ray_session):
    """The fixture corpus has no PII, so the gated query proves only the
    zero-match path; this injected corpus proves the redaction chain
    actually fires AND matches DuckDB's RE2 on the same rows."""
    import duckdb
    import ray.data as rd

    from kgw_ray.stages.textstats import pii_redact_batch, pii_redact_sql

    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "contact alice.smith+spam@example-mail.co for details",
                    "server at 192.168.001.254 and 10.0.0.1 responded",
                    "call 415-555-1234 or 415.555.9876 today",
                    "no pii here at all",
                    "mixed: bob@x.io from 8.8.8.8 dials 650-555-0000",
                ],
                pa.string(),
            ),
        }
    )
    got = (
        rd.from_arrow(tbl)
        .map_batches(pii_redact_batch, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    want = (
        con.execute(pii_redact_sql("documents"))
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["n_redactions"].tolist() == want["n_redactions"].tolist()
    assert got["redacted_md5"].tolist() == want["redacted_md5"].tolist()
    assert got["n_redactions"].tolist() == [1, 2, 2, 0, 3]


def test_table_checksum_detects_single_row_change(ray_session):
    import ray.data as rd

    from kgw_ray.stages.agg import table_checksum

    base = pa.table(
        {"id": pa.array([1, 2, 3], pa.int64()), "v": ["a", "b", "c"]}
    )
    tweaked = pa.table(
        {"id": pa.array([1, 2, 3], pa.int64()), "v": ["a", "B", "c"]}
    )
    a = table_checksum(rd.from_arrow(base), ["id", "v"])
    b = table_checksum(rd.from_arrow(tweaked), ["id", "v"])
    assert a["n_rows"] == b["n_rows"] == 3
    assert a["checksum"] != b["checksum"]
    # order-insensitive: a shuffled copy has the SAME checksum
    shuffled = base.take(pa.array([2, 0, 1]))
    c = table_checksum(rd.from_arrow(shuffled), ["id", "v"])
    assert c["checksum"] == a["checksum"]


def test_snapshot_diff_statuses_cover_all_cases(ray_session, tmp_path):
    """Synthetic log engineered so added / changed / unchanged ALL occur
    (cutoff = max(event_id)//2 = 5): user 1 updates after the cutoff,
    user 2 first appears after it, user 3 never changes."""
    import pandas as pd
    import pyarrow.parquet as pq

    from kgw_ray.pipelines.relational import events_snapshot_diff

    t0 = pd.Timestamp("2024-01-01")
    rows = [
        (0, t0, 1),                             # user 1 old state
        (4, t0 + pd.Timedelta("1h"), 3),        # user 3, final state, pre-cutoff
        (6, t0 + pd.Timedelta("2h"), 2),        # user 2 appears post-cutoff
        (10, t0 + pd.Timedelta("3h"), 1),       # user 1 new state
    ]
    tbl = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    df = (
        events_snapshot_diff(str(tmp_path))
        .to_pandas()
        .set_index("user_id")
        .sort_index()
    )
    assert df.loc[1, "status"] == "changed"
    assert df.loc[1, "old_event_id"] == 0 and df.loc[1, "new_event_id"] == 10
    assert df.loc[2, "status"] == "added" and pd.isna(df.loc[2, "old_event_id"])
    assert df.loc[3, "status"] == "unchanged"
    assert df.loc[3, "old_event_id"] == 4 == df.loc[3, "new_event_id"]


def test_orders_period_diff_statuses(ray_session, sf_smoke):
    """The full-outer period comparison must surface all three statuses on
    the fixture, with NULLs exactly on the missing side."""
    from kgw_ray.pipelines.relational import orders_period_diff

    import pandas as pd

    df = orders_period_diff(sf_smoke).to_pandas()
    assert set(df["status"]) == {"both", "h1_only", "h2_only"}
    assert df[df["status"] == "h1_only"]["n_h2"].isna().all()
    assert df[df["status"] == "h2_only"]["n_h1"].isna().all()
    both = df[df["status"] == "both"]
    assert both["n_h1"].notna().all() and both["n_h2"].notna().all()
    assert df["o_custkey"].notna().all() and df["o_custkey"].is_unique


class TestEditDistancePairs:
    def _run(self, names):
        import pyarrow as pa
        import ray.data as rd

        from kgw_ray.stages.dedup import edit_distance_pairs

        ds = rd.from_arrow(pa.table({"c": pa.array(names, pa.string())}))
        out = edit_distance_pairs(ds, "c").to_pandas()
        return set(map(tuple, out[["a", "b"]].values.tolist()))

    def test_substitution_insertion_deletion(self):
        got = self._run(["abcd", "abed", "abcde", "bcd", "zzzz"])
        # dist(abcd, abed)=1 sub; dist(abcd, abcde)=1 ins;
        # dist(abcd, bcd)=1 del; dist(abed, abcde)=2; zzzz isolated
        assert got == {
            ("abcd", "abcde"),
            ("abcd", "abed"),
            ("abcd", "bcd"),
        }

    def test_exhaustive_vs_bruteforce(self):
        import itertools

        names = [f"n{i:02d}x" for i in range(20)] + ["n05y", "n05", "xn05x"]

        def lev(s, t):
            dp = list(range(len(t) + 1))
            for i, cs in enumerate(s, 1):
                prev, dp[0] = dp[0], i
                for j, ct in enumerate(t, 1):
                    prev, dp[j] = dp[j], min(
                        dp[j] + 1, dp[j - 1] + 1, prev + (cs != ct)
                    )
            return dp[-1]

        want = {
            (a, b)
            for a, b in itertools.combinations(sorted(set(names)), 2)
            if lev(a, b) <= 1
        }
        assert self._run(names) == want

    def test_duplicates_collapse_to_distinct(self):
        got = self._run(["aa", "aa", "ab", "ab", "ab"])
        assert got == {("aa", "ab")}


class TestTokenHeavyHitters:
    def test_matches_bruteforce_threshold(self):
        from collections import Counter

        import pyarrow as pa
        import ray.data as rd

        from kgw_ray.stages.corpus import token_heavy_hitters

        texts = (
            ["the cat sat on the mat"] * 5
            + ["a b c d e f g h"] * 3
            + ["the the the"]
        )
        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            )
        ).repartition(4)
        k = 8
        out = token_heavy_hitters(ds, k=k).to_pandas()
        toks = [w for t in texts for w in t.split()]
        n = len(toks)
        want = {w: c for w, c in Counter(toks).items() if c * k > n}
        assert dict(zip(out["token"], out["n"])) == want
        assert "the" in want  # the fixture actually exercises the filter

    def test_empty_corpus(self):
        import pyarrow as pa
        import ray.data as rd

        from kgw_ray.stages.corpus import token_heavy_hitters

        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "text": pa.array([], pa.string()),
                }
            )
        )
        assert token_heavy_hitters(ds, k=4).count() == 0


def test_edit_distance_cap_boundary():
    """Pins the max_bucket trade the docstring documents: 300 names
    'a<c>z' (single middle substitution) all share the deletion variant
    "az", one bucket of 300 > the 256 cap — the capped plan keeps only
    the stride-1/2 chain pairs, and max_bucket=None (the oracle-gated
    configuration) restores the full exact C(300,2) pair set."""
    import pyarrow as pa
    import ray.data as rd

    from kgw_ray.stages.dedup import edit_distance_pairs

    names = ["a" + chr(0x4E00 + i) + "z" for i in range(300)]
    ds = rd.from_arrow(pa.table({"c": pa.array(names, pa.string())}))
    full = edit_distance_pairs(ds, "c", max_bucket=None).count()
    capped = edit_distance_pairs(ds, "c", max_bucket=256).count()
    assert full == 300 * 299 // 2  # every pair is one substitution apart
    assert capped == 299 + 298  # stride-1 + stride-2 chains only


def _write_docs(tmp_path, rows):
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    df = pd.DataFrame(rows)
    df["lang"] = "en"
    df["n_chars"] = df["text"].str.len().astype("int64")
    pq.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        tmp_path / "documents.parquet",
    )


def test_chunk_windows_edges(tmp_path):
    """Boundary cases of the 128/96 chunking formula: empty doc (no
    chunks), exactly one window, one token past a window (second chunk),
    stride-aligned tail."""
    from kgw_ray.pipelines.training_data import docs_chunk_windows

    _write_docs(
        tmp_path,
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "",  # 0 tokens -> no rows
                " ".join(["w"] * 128),  # exactly one window
                " ".join(["w"] * 129),  # 1 past -> 2 chunks, 2nd = [96,129)
                " ".join(["w"] * 224),  # 128 + 96 -> 2 chunks, 2nd full
            ],
            "source": ["s"] * 4,
        },
    )
    out = docs_chunk_windows(str(tmp_path)).to_pandas()
    got = {
        d: list(zip(g["chunk_idx"], g["tok_start"], g["tok_end"]))
        for d, g in out.sort_values(["doc_id", "chunk_idx"]).groupby("doc_id")
    }
    assert 1 not in got
    assert got[2] == [(0, 0, 128)]
    assert got[3] == [(0, 0, 128), (1, 96, 129)]
    assert got[4] == [(0, 0, 128), (1, 96, 224)]


def test_pack_greedy_edges(tmp_path):
    """First-fit packing recurrence: oversized doc gets a bin alone (and
    closes it), exact fit closes a bin, zero-token docs never open one."""
    from kgw_ray.pipelines.training_data import docs_pack_greedy

    toks = {1: 2000, 2: 48, 3: 5000, 4: 2048, 5: 0, 6: 1, 7: 2048}
    _write_docs(
        tmp_path,
        {
            "doc_id": list(toks),
            "text": [" ".join(["w"] * n) for n in toks.values()],
            "source": ["s"] * len(toks),
        },
    )
    out = (
        docs_pack_greedy(str(tmp_path))
        .to_pandas()
        .set_index("doc_id")["bin_id"]
        .to_dict()
    )
    # 2000+48 fill bin 0 exactly; 5000 overflows alone into bin 1;
    # 2048 exactly fills bin 2; the 0-token doc stays in (full) bin 2
    # without opening one; 1 token opens bin 3; the final 2048 cannot
    # fit beside it -> bin 4
    assert out == {1: 0, 2: 0, 3: 1, 4: 2, 5: 2, 6: 3, 7: 4}


def test_pack_greedy_zero_token_head(tmp_path):
    """A zero-token doc at the head must not open an empty bin."""
    from kgw_ray.pipelines.training_data import docs_pack_greedy

    _write_docs(
        tmp_path,
        {
            "doc_id": [1, 2],
            "text": ["", " ".join(["w"] * 10)],
            "source": ["s", "s"],
        },
    )
    out = (
        docs_pack_greedy(str(tmp_path))
        .to_pandas()
        .set_index("doc_id")["bin_id"]
        .to_dict()
    )
    assert out == {1: 0, 2: 0}


def test_top_component_matches_numpy_direction(sf_smoke):
    """The quantized power-iteration direction aligns with numpy's top
    eigenvector of the same quantized Gram (|cos| > 0.99 at the smoke
    corpus, whose eigen-gap ratio is ~0.93; flatter spectra converge
    slower — spectrum-dependence is inherent to the power method)."""
    import numpy as np

    from kgw_ray.pipelines.training_data import embeddings_top_component
    from kgw_ray.sources.readers import read_table_pandas

    got = embeddings_top_component(sf_smoke).to_pandas()
    v = got.sort_values("pos")["component"].to_numpy(dtype=np.float64)
    emb = read_table_pandas(sf_smoke, "embeddings", columns=["embedding"])
    V = np.vstack(emb["embedding"].to_numpy())
    Q = np.floor(V * 1000 + 0.5)
    G = Q.T @ Q
    evals, evecs = np.linalg.eigh(G)
    top = evecs[:, -1]
    cos = abs(v @ top) / (np.linalg.norm(v) * np.linalg.norm(top))
    assert cos > 0.99
    assert int(np.abs(v).max()) == 1_000_000  # max-norm rescale contract


def test_cms_overestimates_only(sf_smoke):
    """Count-min invariant: every estimate >= the true count, and at this
    load factor (users << depth x width) most point queries are exact."""
    from kgw_ray.pipelines.relational import events_cms_estimates

    df = events_cms_estimates(sf_smoke).to_pandas()
    assert len(df) > 0
    assert (df.cms_estimate >= df.n_events).all()
    assert (df.cms_estimate == df.n_events).mean() > 0.9


def test_zorder_bijective_and_monotone(sf_smoke):
    """Morton keys: de-interleaving zvalue recovers exactly (n_chars mod
    2^16, doc_id mod 2^16), and z is monotone in each dimension with the
    other held fixed."""
    import numpy as np

    from kgw_ray.pipelines.training_data import docs_zorder_keys
    from kgw_ray.sources.readers import read_table_pandas

    got = docs_zorder_keys(sf_smoke).to_pandas()
    docs = read_table_pandas(sf_smoke, "documents", columns=["doc_id", "n_chars"])
    m = got.merge(docs, on="doc_id")
    z = m.zvalue.to_numpy()
    a = np.zeros(len(z), dtype=np.int64)
    b = np.zeros(len(z), dtype=np.int64)
    for k in range(16):
        a |= ((z >> (2 * k + 1)) & 1) << k
        b |= ((z >> (2 * k)) & 1) << k
    assert (a == (m.n_chars.to_numpy() & 0xFFFF)).all()
    assert (b == (m.doc_id.to_numpy() & 0xFFFF)).all()
    # monotone in n_chars with doc_id bits fixed (compare two synthetic keys)
    def zval(aa, bb):
        out = 0
        for k in range(16):
            out |= ((aa >> k) & 1) << (2 * k + 1)
            out |= ((bb >> k) & 1) << (2 * k)
        return out

    assert zval(5, 7) < zval(6, 7) and zval(5, 7) < zval(5, 8)


def test_crawl_budget_apportionment(sf_smoke):
    """Hamilton apportionment invariants: budgets sum exactly to B, every
    host gets at least its floor quota, and no host is more than 1 above
    it (largest-remainder bound)."""
    from kgw_ray.pipelines.training_data import _CRAWL_BUDGET, webkg_crawl_budget

    df = webkg_crawl_budget(sf_smoke).to_pandas()
    assert int(df.budget.sum()) == _CRAWL_BUDGET
    total = int(df.n_pages.sum())
    floor = (_CRAWL_BUDGET * df.n_pages) // total
    assert ((df.budget - floor).isin((0, 1))).all()


def test_zorder_layout_prunes_row_groups(sf_smoke, tmp_path):
    """The point of docs_zorder_keys: after ONE physical ordering by
    zvalue, row-group min/max stats prune an n_chars range filter that a
    doc_id ordering cannot — measured on real Parquet metadata."""
    import pyarrow.parquet as pq

    from kgw_ray.pipelines.training_data import docs_zorder_keys
    from kgw_ray.sources.readers import read_table_pandas

    docs = read_table_pandas(sf_smoke, "documents", columns=["doc_id", "n_chars"])
    z = docs_zorder_keys(sf_smoke).to_pandas()
    m = docs.merge(z, on="doc_id")

    def overlap_frac(df, order_col):
        import pyarrow as pa

        path = str(tmp_path / f"{order_col}.parquet")
        pq.write_table(
            pa.Table.from_pandas(
                df.sort_values(order_col).reset_index(drop=True)
            ),
            path,
            row_group_size=8,
        )
        md = pq.ParquetFile(path).metadata
        idx = [
            i
            for i in range(md.num_columns)
            if md.row_group(0).column(i).path_in_schema == "n_chars"
        ][0]
        lo, hi = 100, 140  # a selective n_chars band
        touched = 0
        for g in range(md.num_row_groups):
            st = md.row_group(g).column(idx).statistics
            if st.min <= hi and st.max >= lo:
                touched += 1
        return touched / md.num_row_groups

    z_frac = overlap_frac(m, "zvalue")
    id_frac = overlap_frac(m, "doc_id")
    # doc_id order interleaves n_chars values → ~every group overlaps;
    # z-order co-locates the n_chars bits → a strict subset is touched
    assert z_frac < id_frac
    assert z_frac < 0.7


def test_skyline_bruteforce(tmp_path):
    """Skyline on hand data incl. ties and duplicates: min price / max
    size dominance; duplicate criterion points survive together."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from kgw_ray.pipelines.relational import parts_skyline

    rows = [
        # key, price, size
        (1, 5.0, 10), (2, 5.0, 10),   # duplicates on the frontier
        (3, 5.0, 7),                  # same price, smaller size: dominated
        (4, 4.0, 9),                  # cheaper, smaller: frontier
        (5, 6.0, 12),                 # pricier, bigger: frontier
        (6, 6.0, 10),                 # dominated by 1/2 (cheaper, equal size)
        (7, 4.0, 9),                  # duplicate of 4
        (8, 7.0, 12),                 # dominated by 5 (cheaper, equal size)
    ]
    df = pd.DataFrame(rows, columns=["p_partkey", "p_retailprice", "p_size"])
    d = tmp_path / "sky"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(df), str(d / "part.parquet"))
    got = parts_skyline(str(d)).to_pandas()
    assert sorted(got.p_partkey) == [1, 2, 4, 5, 7]

    # brute force over the same rows
    def dominated(i):
        pi, si = rows[i][1], rows[i][2]
        return any(
            (q[1] <= pi and q[2] >= si and (q[1] < pi or q[2] > si))
            for q in rows
        )

    want = sorted(r[0] for i, r in enumerate(rows) if not dominated(i))
    assert sorted(got.p_partkey) == want


def test_pareto_concentration_minimal_prefix(sf_smoke):
    """Each reported n_sources is the MINIMAL top-source prefix clearing the
    threshold: prefix of size n covers >= pct%, size n-1 does not."""
    from kgw_ray.pipelines.training_data import pareto_concentration

    out = pareto_concentration(sf_smoke).to_pandas().sort_values("pct")
    docs = read_table(sf_smoke, "documents", columns=["source", "n_chars"])
    df = docs.to_pandas()
    per = (
        df.groupby("source")["n_chars"].sum().reset_index()
        .sort_values(["n_chars", "source"], ascending=[False, True])
    )
    cum = per["n_chars"].to_numpy().cumsum()
    total = int(cum[-1])
    assert (out["total_chars"] == total).all()
    for _, r in out.iterrows():
        n = int(r["n_sources"])
        assert int(cum[n - 1]) == int(r["cum_chars"])
        assert cum[n - 1] * 100 >= r["pct"] * total
        if n > 1:
            assert cum[n - 2] * 100 < r["pct"] * total
    # thresholds are nested: higher pct never needs fewer sources
    assert out["n_sources"].is_monotonic_increasing


def test_source_gini_bruteforce(sf_smoke):
    """Integer Gini pair == textbook mean-absolute-difference definition."""
    from kgw_ray.pipelines.training_data import source_gini
    from kgw_ray.sources.readers import read_table_pandas

    out = source_gini(sf_smoke).to_pandas().iloc[0]
    df = read_table_pandas(sf_smoke, "documents", columns=["source", "n_chars"])
    c = df.groupby("source")["n_chars"].sum().to_numpy()
    n, total = len(c), int(c.sum())
    # G = sum_ij |ci - cj| / (2 n total) — brute force O(n^2)
    mad = sum(abs(int(a) - int(b)) for a in c for b in c)
    assert out["n_sources"] == n
    assert out["gini_den"] == n * total
    # cross-multiply: gini_num / gini_den == mad / (2 n total)
    assert int(out["gini_num"]) * 2 * n * total == mad * int(out["gini_den"])
