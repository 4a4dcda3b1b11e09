//! Archive-tier fault injection: the `9CA` container under hostile
//! bytes and killed appends.
//!
//! Four layers, mirroring `fault_injection.rs` for the frame format:
//!
//! 1. **Torn-append harness** (`failpoints` feature): an append is
//!    killed at *every* byte boundary via the `arc:<b>:kill` fault
//!    point; the previous epoch must stay bit-exactly extractable at
//!    every single one.
//! 2. **Exhaustive mutation sweeps**: every byte of the store and of
//!    the epoch index is flipped; every outcome must land in the
//!    trichotomy *bit-exact read ∨ typed error ∨ scrub report covering
//!    the mutated byte* — never a panic, never silent corruption.
//! 3. **Truncation sweeps**: the store and index cut at every length.
//! 4. **Corpus replay**: blessed `.9ca`/`.9ca.idx` goldens under
//!    `tests/corpus/` — including a bombed index, a torn-epoch tail and
//!    a rotted dedup-shared blob — are byte-pinned against their
//!    generators (regenerate with `CORPUS_BLESS=1`) and replayed.

use std::path::{Path, PathBuf};

use ninec::engine::archive::{self, Archive, ArchiveError, DATA_HEADER_BYTES, INDEX_SUFFIX};
use ninec::engine::frame;
use ninec::engine::scrub::{ScrubMode, ScrubVerdict};
use ninec::engine::Engine;
use ninec::{DecodeError, FrameError};
use ninec_testdata::gen::SyntheticProfile;
use ninec_testdata::trit::TritVec;

/// Deterministic multi-segment source stream (same generator family as
/// the frame fault suite, smaller so the exhaustive sweeps stay fast).
fn stream(seed: u64) -> TritVec {
    SyntheticProfile::new("arc", 12, 48, 0.72)
        .generate(seed)
        .as_stream()
        .clone()
}

fn engine(threads: usize) -> Engine {
    Engine::builder().threads(threads).segment_bits(192).build()
}

/// Erasure-coded sibling: small interleaved groups, one-shard budget.
fn engine_v3(threads: usize) -> Engine {
    Engine::builder()
        .threads(threads)
        .segment_bits(192)
        .parity(2, 1)
        .build()
}

/// Private scratch dir per test (std-only; no tempfile crate).
fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ninec_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Writes a store/index pair into `dir` and returns the store path.
fn write_pair(dir: &Path, store: &[u8], index: &[u8]) -> PathBuf {
    let path = dir.join("t.9ca");
    let mut idx = path.as_os_str().to_os_string();
    idx.push(INDEX_SUFFIX);
    std::fs::write(&path, store).expect("write store");
    std::fs::write(PathBuf::from(idx), index).expect("write index");
    path
}

/// Builds a two-frame archive with `eng` (the second frame repeats the
/// first's stream, so every one of its blobs dedups) and returns
/// `(store bytes, index bytes, frame bytes in order)`.
fn build_archive(eng: &Engine, tag: &str) -> (Vec<u8>, Vec<u8>, Vec<Vec<u8>>) {
    let dir = tempdir(tag);
    let path = dir.join("t.9ca");
    let mut arc = Archive::create(&path, eng).expect("create");
    let f1 = eng.encode_frame(8, &stream(7)).expect("frame 1");
    let f2 = eng.encode_frame(8, &stream(7)).expect("frame 2");
    let r1 = arc.append_frame(&f1).expect("append 1");
    let r2 = arc.append_frame(&f2).expect("append 2");
    assert!(r1.new_bytes > 0);
    assert_eq!(r2.new_bytes, 0, "identical frame must fully dedup");
    let store = std::fs::read(arc.path()).expect("read store");
    let index = std::fs::read(arc.index_path()).expect("read index");
    let _ = std::fs::remove_dir_all(&dir);
    (store, index, vec![f1, f2])
}

/// The single-mutant trichotomy check for an archive store byte.
///
/// Exactly one of: the archive opens and every frame extracts
/// bit-exactly; or a typed error is returned and (when the damage is
/// past the store header) a check-mode scrub covers the mutated byte.
/// When `repairable` (the v3 golden), a repair-mode scrub must then
/// heal every frame back to bit-exact.
fn check_store_mutant(
    store: &[u8],
    index: &[u8],
    frames: &[Vec<u8>],
    eng: &Engine,
    offset: usize,
    repairable: bool,
) {
    let dir = tempdir("arc_store_mut");
    let mut mutant = store.to_vec();
    mutant[offset] ^= 0xFF;
    let path = write_pair(&dir, &mutant, index);
    match Archive::open(&path, eng) {
        Err(e) => {
            // Typed error: rendering it must not panic either. Only
            // store-header damage can fail open — blobs are lazy.
            let _ = e.to_string();
            assert!(
                offset < DATA_HEADER_BYTES,
                "open rejected a store whose header is intact (mutation at {offset})"
            );
        }
        Ok(mut arc) => {
            let extracts: Vec<_> = (0..arc.frame_count())
                .map(|i| arc.extract_frame(i))
                .collect();
            if extracts.iter().all(Result::is_ok) {
                for (i, got) in extracts.iter().enumerate() {
                    assert_eq!(
                        got.as_deref().ok(),
                        Some(frames[i].as_slice()),
                        "extraction silently corrupt (mutation at {offset})"
                    );
                }
            } else {
                for e in extracts.iter().filter_map(|r| r.as_ref().err()) {
                    let _ = e.to_string();
                }
                let check = arc.scrub(ScrubMode::Check).expect("check scrub");
                assert!(
                    check.covers_offset(offset as u64),
                    "scrub report misses mutated byte {offset}: {:?}",
                    check.findings
                );
                if repairable {
                    let repair = arc.scrub(ScrubMode::Repair).expect("repair scrub");
                    assert!(
                        !repair.needs_attention(),
                        "single-byte rot within the r=1 budget must repair \
                         (mutation at {offset}): {:?}",
                        repair.findings
                    );
                    for (i, f) in frames.iter().enumerate() {
                        assert_eq!(
                            arc.extract_frame(i).expect("post-repair extract"),
                            *f,
                            "repair not bit-exact (mutation at {offset})"
                        );
                    }
                    assert!(arc.scrub(ScrubMode::Check).expect("rescrub").is_clean());
                } else {
                    assert!(
                        check.lost_segments > 0,
                        "unprotected rot must be reported Lost (mutation at {offset})"
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_mutation_sweep_v2_holds_the_trichotomy() {
    let eng = engine(2);
    let (store, index, frames) = build_archive(&eng, "arc_sweep_v2");
    for offset in 0..store.len() {
        check_store_mutant(&store, &index, &frames, &eng, offset, false);
    }
}

#[test]
fn store_mutation_sweep_v3_repairs_every_byte() {
    let eng = engine_v3(2);
    let (store, index, frames) = build_archive(&eng, "arc_sweep_v3");
    for offset in 0..store.len() {
        check_store_mutant(&store, &index, &frames, &eng, offset, true);
    }
}

#[test]
fn index_mutation_sweep_is_always_typed() {
    let eng = engine(2);
    let (store, index, _frames) = build_archive(&eng, "arc_sweep_idx");
    let dir = tempdir("arc_idx_mut");
    for offset in 0..index.len() {
        let mut mutant = index.to_vec();
        mutant[offset] ^= 0xFF;
        let path = write_pair(&dir, &store, &mutant);
        // The index is CRC-covered end to end: any single flipped byte
        // must be a typed rejection, never a wrong archive.
        let e = Archive::open(&path, &eng)
            .err()
            .unwrap_or_else(|| panic!("flipped index byte {offset} was accepted"));
        let _ = e.to_string();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_sweeps_are_always_typed() {
    let eng = engine(2);
    let (store, index, _frames) = build_archive(&eng, "arc_trunc");
    let dir = tempdir("arc_trunc_sweep");
    // Index cut at every length: typed rejection.
    for cut in 0..index.len() {
        let path = write_pair(&dir, &store, &index[..cut]);
        let e = Archive::open(&path, &eng)
            .err()
            .unwrap_or_else(|| panic!("index truncated to {cut} bytes was accepted"));
        let _ = e.to_string();
    }
    // Store cut below its committed epoch: typed rejection (the index
    // would otherwise reference bytes that no longer exist).
    for cut in 0..store.len() {
        let path = write_pair(&dir, &store[..cut], &index);
        let e = Archive::open(&path, &eng)
            .err()
            .unwrap_or_else(|| panic!("store truncated to {cut} bytes was accepted"));
        let _ = e.to_string();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_bytes_are_ignored_and_reclaimed() {
    let eng = engine(2);
    let (store, index, frames) = build_archive(&eng, "arc_tail");
    let dir = tempdir("arc_tail_sweep");
    for garbage in [1usize, 7, 64] {
        let mut torn = store.clone();
        torn.resize(torn.len() + garbage, 0xA5);
        let path = write_pair(&dir, &torn, &index);
        // A torn tail past the committed epoch is invisible: reads are
        // bit-exact and a scrub is clean.
        let mut arc = Archive::open(&path, &eng).expect("open with torn tail");
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(arc.extract_frame(i).expect("extract"), *f);
        }
        assert!(arc.scrub(ScrubMode::Check).expect("scrub").is_clean());
        // The next successful append truncates the tail away.
        let f3 = eng.encode_frame(8, &stream(9)).expect("frame 3");
        arc.append_frame(&f3).expect("append past torn tail");
        let len = std::fs::metadata(&path).expect("store metadata").len();
        let reopened = Archive::open(&path, &eng).expect("reopen");
        assert_eq!(reopened.frame_count(), 3);
        assert_eq!(reopened.extract_frame(2).expect("extract"), f3);
        assert_eq!(
            len,
            reopened.stats().stored_bytes + DATA_HEADER_BYTES as u64,
            "torn tail must be reclaimed by the append"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: an append used to skip strict decode's frame-level
/// checks, so a CRC-valid frame whose header total disagrees with its
/// segments committed — and the next `open` refused the whole archive.
/// The append now fails with strict decode's own error and commits
/// nothing.
#[test]
fn a_strictly_invalid_append_commits_nothing() {
    let eng = engine(2);
    let good = eng.encode_frame(8, &stream(7)).expect("frame 0");
    // The same segments under a header claiming one trit more, with a
    // valid header CRC.
    let segments = u32::from_le_bytes(good[15..19].try_into().expect("4 bytes"));
    let total = u64::from_le_bytes(good[19..27].try_into().expect("8 bytes"));
    let mut lengths = [0u8; 9];
    lengths.copy_from_slice(&good[6..15]);
    let mut bad = Vec::new();
    frame::write_header(&mut bad, lengths, segments, total + 1);
    bad.extend_from_slice(&good[frame::HEADER_BYTES..]);
    let strict = eng
        .decode_frame(&bad)
        .expect_err("strict decode rejects it");
    assert!(matches!(
        strict,
        DecodeError::Frame(FrameError::Malformed {
            what: "segment source lengths do not sum to the header total",
            ..
        })
    ));

    let dir = tempdir("arc_strict_append");
    let path = dir.join("t.9ca");
    let mut arc = Archive::create(&path, &eng).expect("create");
    arc.append_frame(&good).expect("append frame 0");
    match arc.append_frame(&bad) {
        Err(ArchiveError::Frame(e)) => assert_eq!(DecodeError::from(e), strict),
        other => panic!("expected strict decode's error, got {other:?}"),
    }
    let reopened = Archive::open(&path, &eng).expect("reopen");
    assert_eq!(reopened.frame_count(), 1);
    assert_eq!(reopened.extract_frame(0).expect("extract frame 0"), good);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Corpus replay: committed nasty archives under tests/corpus/.
// ---------------------------------------------------------------------------

/// Deterministically regenerates every archive corpus file. Run with
/// `CORPUS_BLESS=1 cargo test -q --test archive_fault_injection` after
/// changing the archive format.
///
/// Returns `(name, bytes)` pairs; stores and indexes are separate
/// files so each golden archive is the on-disk *pair* the reader sees.
fn corpus_files() -> Vec<(&'static str, Vec<u8>)> {
    let (store_v2, index_v2, _) = build_archive(&engine(1), "arc_corpus_v2");
    let (store_v3, index_v3, _) = build_archive(&engine_v3(1), "arc_corpus_v3");

    // 1. Bomb index: a forged frame count of u32::MAX with a fixed-up
    //    trailing CRC — the byte-budget cross-check must reject it
    //    before allocating anything.
    let mut bomb = index_v3.clone();
    let body_len = bomb.len() - 4;
    bomb[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc = frame::crc32(&bomb[..body_len]);
    bomb[body_len..].copy_from_slice(&crc.to_le_bytes());

    // 2. Torn epoch: a store with 19 garbage bytes past the committed
    //    length — the uncommitted tail a killed append leaves behind.
    let mut torn = store_v3.clone();
    torn.extend_from_slice(&[0x5A; 19]);

    // 3. Rotted dedup-shared blob: one flipped byte in the first blob
    //    past the store header, which both frames reference.
    let mut rotted = store_v3.clone();
    rotted[DATA_HEADER_BYTES + 4] ^= 0xFF;

    vec![
        ("archive_v2.9ca", store_v2),
        ("archive_v2.9ca.idx", index_v2),
        ("archive_v3.9ca", store_v3),
        ("archive_v3.9ca.idx", index_v3),
        ("archive_bomb.9ca.idx", bomb),
        ("archive_torn_epoch.9ca", torn),
        ("archive_rotted.9ca", rotted),
    ]
}

#[test]
fn corpus_replay() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let bless = std::env::var_os("CORPUS_BLESS").is_some();
    let mut on_disk: std::collections::HashMap<&'static str, Vec<u8>> =
        std::collections::HashMap::new();
    for (name, bytes) in corpus_files() {
        let path = dir.join(name);
        if bless {
            std::fs::create_dir_all(&dir).expect("create corpus dir");
            std::fs::write(&path, &bytes).expect("bless corpus file");
            on_disk.insert(name, bytes);
            continue;
        }
        let got = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (regenerate with CORPUS_BLESS=1)", path.display()));
        assert_eq!(
            got, bytes,
            "{name} drifted from its generator; regenerate with CORPUS_BLESS=1"
        );
        on_disk.insert(name, got);
    }

    let eng_v2 = engine(1);
    let eng_v3 = engine_v3(1);
    let (_, _, frames_v2) = build_archive(&eng_v2, "arc_replay_v2");
    let (_, _, frames_v3) = build_archive(&eng_v3, "arc_replay_v3");
    let store_v3 = &on_disk["archive_v3.9ca"];
    let index_v3 = &on_disk["archive_v3.9ca.idx"];

    // Clean goldens: bit-exact extraction, clean scrub.
    for (store, index, frames, eng) in [
        ("archive_v2.9ca", "archive_v2.9ca.idx", &frames_v2, &eng_v2),
        ("archive_v3.9ca", "archive_v3.9ca.idx", &frames_v3, &eng_v3),
    ] {
        let tmp = tempdir("arc_replay_clean");
        let path = write_pair(&tmp, &on_disk[store], &on_disk[index]);
        let mut arc = Archive::open(&path, eng).expect(store);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(
                arc.extract_frame(i).expect("extract"),
                *f,
                "{store} frame {i}"
            );
        }
        assert!(arc.scrub(ScrubMode::Check).expect("scrub").is_clean());
        let _ = std::fs::remove_dir_all(&tmp);
    }

    // Bombed index: typed structural rejection, no allocation bomb.
    {
        let tmp = tempdir("arc_replay_bomb");
        let path = write_pair(&tmp, store_v3, &on_disk["archive_bomb.9ca.idx"]);
        assert!(matches!(
            Archive::open(&path, &eng_v3),
            Err(ArchiveError::BadIndex { .. })
        ));
        let _ = std::fs::remove_dir_all(&tmp);
    }

    // Torn epoch: the garbage tail is invisible to every read path.
    {
        let tmp = tempdir("arc_replay_torn");
        let path = write_pair(&tmp, &on_disk["archive_torn_epoch.9ca"], index_v3);
        let mut arc = Archive::open(&path, &eng_v3).expect("open torn epoch");
        for (i, f) in frames_v3.iter().enumerate() {
            assert_eq!(arc.extract_frame(i).expect("extract"), *f);
        }
        assert!(arc.scrub(ScrubMode::Check).expect("scrub").is_clean());
        let _ = std::fs::remove_dir_all(&tmp);
    }

    // Rotted shared blob: both frames see the rot, one repair heals
    // every referencing frame bit-exactly.
    {
        let tmp = tempdir("arc_replay_rot");
        let path = write_pair(&tmp, &on_disk["archive_rotted.9ca"], index_v3);
        let mut arc = Archive::open(&path, &eng_v3).expect("open rotted");
        for i in 0..arc.frame_count() {
            assert!(
                matches!(arc.extract_frame(i), Err(ArchiveError::Rotted { .. })),
                "shared rot must fail every referencing frame"
            );
        }
        let check = arc.scrub(ScrubMode::Check).expect("check");
        assert!(check.covers_offset((DATA_HEADER_BYTES + 4) as u64));
        assert!(check
            .findings
            .iter()
            .all(|f| matches!(f.verdict, ScrubVerdict::Degraded { .. })));
        let repair = arc.scrub(ScrubMode::Repair).expect("repair");
        assert!(!repair.needs_attention());
        for (i, f) in frames_v3.iter().enumerate() {
            assert_eq!(arc.extract_frame(i).expect("post-repair extract"), *f);
        }
        let _ = std::fs::remove_dir_all(&tmp);
    }

    // Random access over the blessed v3 archive matches a full decode.
    {
        let tmp = tempdir("arc_replay_range");
        let path = write_pair(&tmp, store_v3, index_v3);
        let arc = Archive::open(&path, &eng_v3).expect("open");
        let full = eng_v3.decode_frame(&frames_v3[0]).expect("decode");
        for (start, len) in [(0usize, 7usize), (63, 64), (full.len() - 5, 5)] {
            let got = arc.decode_range(0, start, len).expect("range");
            assert_eq!(got.len(), len);
            for i in 0..len {
                assert_eq!(got.get(i), full.get(start + i), "start {start} trit {i}");
            }
        }
        let _ = std::fs::remove_dir_all(&tmp);
    }
}

// ---------------------------------------------------------------------------
// Torn-append harness: a kill at every byte boundary (failpoints only).
// ---------------------------------------------------------------------------

#[cfg(feature = "failpoints")]
mod torn_append {
    use super::*;
    use ninec::engine::faultpoint::{Action, FailPoint, SITE_ARC};

    fn kill_engine(boundary: usize) -> Engine {
        Engine::builder()
            .threads(1)
            .segment_bits(192)
            .failpoint(FailPoint {
                site: SITE_ARC.into(),
                index: Some(boundary),
                action: Action::Kill,
            })
            .build()
    }

    /// The ISSUE's headline robustness claim: killing an append at
    /// *every* byte boundary leaves all previously committed frames
    /// bit-exactly extractable, with the epoch untouched.
    #[test]
    fn every_kill_boundary_preserves_the_previous_epoch() {
        let dir = tempdir("arc_kill_all");
        let eng = engine(1);
        let f1 = eng.encode_frame(8, &stream(3)).expect("frame 1");
        let f2 = eng.encode_frame(8, &stream(5)).expect("frame 2");
        let f3 = eng.encode_frame(8, &stream(9)).expect("frame 3");
        let path = dir.join("t.9ca");
        let mut arc = Archive::create(&path, &eng).expect("create");
        arc.append_frame(&f1).expect("append 1");
        arc.append_frame(&f2).expect("append 2");
        let epoch = arc.epoch();
        drop(arc);

        // Dry-run the third append elsewhere to learn how many fresh
        // store bytes it writes — that is the boundary space.
        let total = {
            let dry = tempdir("arc_kill_dry");
            let mut a = Archive::create(dry.join("t.9ca"), &eng).expect("create dry");
            a.append_frame(&f1).expect("dry 1");
            a.append_frame(&f2).expect("dry 2");
            let receipt = a.append_frame(&f3).expect("dry 3");
            let _ = std::fs::remove_dir_all(&dry);
            usize::try_from(receipt.new_bytes).expect("fits usize")
        };
        assert!(total > 0, "the harness needs fresh bytes to tear");

        for boundary in 0..=total {
            let killer = kill_engine(boundary);
            let mut arc = Archive::open(&path, &killer).expect("open under kill point");
            let err = arc
                .append_frame(&f3)
                .expect_err("armed kill must tear the append");
            match err {
                ArchiveError::TornAppend { written } => assert_eq!(
                    written as usize,
                    boundary.min(total),
                    "kill at boundary {boundary} wrote the wrong byte count"
                ),
                other => panic!("kill at boundary {boundary} surfaced {other}"),
            }
            // The previous epoch survives: same frames, same bytes.
            let survivor = Archive::open(&path, &eng).expect("reopen after kill");
            assert_eq!(survivor.frame_count(), 2, "boundary {boundary}");
            assert_eq!(survivor.epoch(), epoch, "boundary {boundary}");
            assert_eq!(survivor.extract_frame(0).expect("extract 1"), f1);
            assert_eq!(survivor.extract_frame(1).expect("extract 2"), f2);
        }

        // With the fault disarmed the append lands and reclaims every
        // torn tail the kills left behind.
        let mut arc = Archive::open(&path, &eng).expect("final open");
        arc.append_frame(&f3).expect("clean append");
        assert_eq!(arc.frame_count(), 3);
        assert_eq!(arc.extract_frame(2).expect("extract 3"), f3);
        let len = std::fs::metadata(&path).expect("store metadata").len();
        assert_eq!(len, arc.stats().stored_bytes + DATA_HEADER_BYTES as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A wildcard kill point (`arc:*:kill`) tears at boundary zero.
    #[test]
    fn wildcard_kill_point_writes_nothing() {
        let dir = tempdir("arc_kill_wild");
        let eng = engine(1);
        let killer = Engine::builder()
            .threads(1)
            .segment_bits(192)
            .failpoint(FailPoint {
                site: SITE_ARC.into(),
                index: None,
                action: Action::Kill,
            })
            .build();
        let path = dir.join("t.9ca");
        let mut arc = Archive::create(&path, &killer).expect("create");
        let f1 = eng.encode_frame(8, &stream(3)).expect("frame");
        match arc.append_frame(&f1) {
            Err(ArchiveError::TornAppend { written }) => assert_eq!(written, 0),
            other => panic!("expected a torn append, got {other:?}"),
        }
        let survivor = Archive::open(&path, &eng).expect("reopen");
        assert_eq!(survivor.frame_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn archive_module_sniffs() {
    assert!(archive::is_archive(b"9CA1rest"));
    assert!(!archive::is_archive(b"9CSF"));
}
