//! Criterion timing benches, one group per paper table/figure.
//!
//! The groups measure the *codec and architecture engines* behind each
//! experiment (the tables themselves are regenerated by the `tables`
//! binary). Sample sizes are kept small so `cargo bench --workspace`
//! completes in minutes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ninec::analysis::TatModel;
use ninec::encode::Encoder;
use ninec::freqdir::encode_frequency_directed;
use ninec_baselines::arl::AlternatingRunLength;
use ninec_baselines::codec::TestDataCodec;
use ninec_baselines::dict::FixedIndexDictionary;
use ninec_baselines::efdr::Efdr;
use ninec_baselines::fdr::Fdr;
use ninec_baselines::golomb::Golomb;
use ninec_baselines::selhuff::SelectiveHuffman;
use ninec_baselines::vihc::Vihc;
use ninec_bench::datasets::{ibm_datasets_scaled, mintest_datasets, P_SWEEP};
use ninec_decompressor::area::decoder_area;
use ninec_decompressor::multi::MultiScanDecoder;
use ninec_decompressor::parallel::ParallelDecoders;
use ninec_decompressor::single::{ClockRatio, SingleScanDecoder};
use ninec_testdata::fill::FillStrategy;
use std::hint::black_box;

/// Table II: 9C encoding throughput across K on the s5378 profile.
fn bench_table2_compression(c: &mut Criterion) {
    let ds = mintest_datasets();
    let s5378 = &ds[0];
    let mut group = c.benchmark_group("table2_compression");
    group.sample_size(10);
    for k in [4usize, 8, 16, 32] {
        let encoder = Encoder::new(k).expect("valid K");
        group.bench_with_input(BenchmarkId::new("encode_s5378", k), &k, |b, _| {
            b.iter(|| black_box(encoder.encode_set(&s5378.cubes).compressed_len()));
        });
    }
    group.finish();
}

/// Table IV: baseline codec throughput on the s5378 profile.
fn bench_table4_baselines(c: &mut Criterion) {
    let ds = mintest_datasets();
    let stream = ds[0].cubes.as_stream().clone();
    let mut group = c.benchmark_group("table4_baselines");
    group.sample_size(10);
    group.bench_function("ninec_k8", |b| {
        let e = Encoder::new(8).expect("valid K");
        b.iter(|| black_box(e.encode_stream(&stream).compressed_len()));
    });
    group.bench_function("fdr", |b| {
        b.iter(|| black_box(Fdr::new().compressed_size(&stream)));
    });
    group.bench_function("efdr", |b| {
        b.iter(|| black_box(Efdr::new().compressed_size(&stream)));
    });
    group.bench_function("arl", |b| {
        b.iter(|| black_box(AlternatingRunLength::new().compressed_size(&stream)));
    });
    group.bench_function("golomb_b4", |b| {
        let g = Golomb::new(4).expect("valid b");
        b.iter(|| black_box(g.compressed_size(&stream)));
    });
    group.bench_function("vihc_mh8", |b| {
        let v = Vihc::new(8).expect("valid mh");
        b.iter(|| black_box(v.compressed_size(&stream)));
    });
    group.bench_function("selhuff_8_16", |b| {
        let s = SelectiveHuffman::new(8, 16).expect("valid config");
        b.iter(|| black_box(s.compressed_size(&stream)));
    });
    group.bench_function("dict_16_256", |b| {
        let d = FixedIndexDictionary::new(16, 256).expect("valid config");
        b.iter(|| black_box(d.compressed_size(&stream)));
    });
    group.finish();
}

/// Motivation experiment engines: ATPG and LFSR reseeding.
fn bench_motivation(c: &mut Criterion) {
    let mut group = c.benchmark_group("motivation");
    group.sample_size(10);
    group.bench_function("atpg_s27", |b| {
        let s27 = ninec_circuit::bench::parse_bench(ninec_circuit::bench::S27)
            .expect("bundled netlist parses");
        b.iter(|| {
            let r = ninec_atpg::generate::generate_tests(
                &s27,
                ninec_atpg::generate::AtpgConfig::default(),
            );
            black_box(r.tests.num_patterns())
        });
    });
    let ds = mintest_datasets();
    group.bench_function("reseed_windowed_s5378", |b| {
        let enc = ninec_bist::reseed::ReseedEncoder::new(32).expect("tabulated width");
        b.iter(|| black_box(enc.encode_set_windowed(&ds[0].cubes, 64).compressed_bits()));
    });
    group.bench_function("scan_protocol_s27", |b| {
        use ninec_circuit::scan::insert_scan;
        use ninec_fsim::seq::SequentialSimulator;
        let s27 = ninec_circuit::bench::parse_bench(ninec_circuit::bench::S27)
            .expect("bundled netlist parses");
        let scanned = insert_scan(&s27).expect("sequential circuit");
        let pattern: ninec_testdata::TritVec = "101".parse().expect("valid trits");
        b.iter(|| {
            let mut sim = SequentialSimulator::new(&scanned.circuit);
            for _ in 0..50 {
                black_box(sim.scan_shift(&scanned, &pattern));
            }
        });
    });
    group.finish();
}

/// Table V: cycle-accurate single-scan decompression across clock ratios.
fn bench_table5_decompress(c: &mut Criterion) {
    let ds = mintest_datasets();
    let cubes = &ds[0].cubes;
    let encoded = Encoder::new(8).expect("valid K").encode_set(cubes);
    let bits = encoded.to_bitvec(FillStrategy::Zero);
    let mut group = c.benchmark_group("table5_decompress");
    group.sample_size(10);
    for p in P_SWEEP {
        let decoder = SingleScanDecoder::new(8, encoded.table().clone(), ClockRatio::new(p));
        group.bench_with_input(BenchmarkId::new("single_scan", p), &p, |b, _| {
            b.iter(|| {
                let trace = decoder.run(&bits, cubes.total_bits()).expect("decodes");
                black_box(trace.soc_ticks)
            });
        });
    }
    // The analytic model, for comparison (it should be ~free).
    group.bench_function("analytic_tat", |b| {
        b.iter(|| black_box(TatModel::new(8.0).tat_percent(&encoded)));
    });
    group.finish();
}

/// Table VII: two-pass frequency-directed encoding.
fn bench_table7_freqdir(c: &mut Criterion) {
    let ds = mintest_datasets();
    let stream = ds[1].cubes.as_stream().clone();
    let mut group = c.benchmark_group("table7_freqdir");
    group.sample_size(10);
    group.bench_function("two_pass_s9234", |b| {
        b.iter(|| {
            let out = encode_frequency_directed(8, &stream).expect("valid K");
            black_box(out.reassigned.compressed_len())
        });
    });
    group.finish();
}

/// Table VIII: large-stream encoding (scaled IBM profile).
fn bench_table8_large(c: &mut Criterion) {
    let ibm = ibm_datasets_scaled(4); // ~1 Mbit: representative, bench-fast
    let mut group = c.benchmark_group("table8_large");
    group.sample_size(10);
    for k in [16usize, 64] {
        let encoder = Encoder::new(k).expect("valid K");
        group.bench_with_input(BenchmarkId::new("encode_ckt1", k), &k, |b, _| {
            b.iter(|| black_box(encoder.encode_set(&ibm[0].cubes).compressed_len()));
        });
    }
    group.finish();
}

/// Scalar reference vs word-parallel encode kernels.
///
/// End-to-end speed, with its spread, is measured by the `benchmark/`
/// package; this group tracks the kernel ratio on a scaled stream so
/// `cargo bench` regressions are caught early.
fn bench_throughput(c: &mut Criterion) {
    let ibm = ibm_datasets_scaled(4); // ~1 Mbit: representative, bench-fast
    let stream = ibm[0].cubes.as_stream().clone();
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    for k in [16usize, 64] {
        let encoder = Encoder::new(k).expect("valid K");
        group.bench_with_input(BenchmarkId::new("scalar_ckt1", k), &k, |b, _| {
            b.iter(|| black_box(encoder.encode_stream_scalar(&stream).compressed_len()));
        });
        group.bench_with_input(BenchmarkId::new("word_ckt1", k), &k, |b, _| {
            b.iter(|| black_box(encoder.encode_stream(&stream).compressed_len()));
        });
    }
    group.finish();
}

/// Figure 2: decoder FSM synthesis (Quine–McCluskey over 7 variables).
fn bench_fig2_fsm(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_fsm");
    group.sample_size(10);
    group.bench_function("synthesize_decoder_fsm", |b| {
        b.iter(|| black_box(decoder_area(8).total_ge()));
    });
    group.finish();
}

/// Figure 4: the three scan architectures end to end.
fn bench_fig4_architectures(c: &mut Criterion) {
    let ds = mintest_datasets();
    let cubes = &ds[0].cubes; // s5378: 214 cells
    let (k, m, p) = (8usize, 32usize, 8u32);
    let mut group = c.benchmark_group("fig4_architectures");
    group.sample_size(10);

    let enc_a = Encoder::new(k).expect("valid K").encode_set(cubes);
    let bits_a = enc_a.to_bitvec(FillStrategy::Zero);
    group.bench_function("4a_single_scan", |b| {
        let dec = SingleScanDecoder::new(k, enc_a.table().clone(), ClockRatio::new(p));
        b.iter(|| {
            black_box(
                dec.run(&bits_a, cubes.total_bits())
                    .expect("decodes")
                    .soc_ticks,
            )
        });
    });

    let enc_b = ninec::multiscan::encode_multiscan(cubes, m, k).expect("valid config");
    let bits_b = enc_b.to_bitvec(FillStrategy::Zero);
    group.bench_function("4b_multi_scan_single_pin", |b| {
        let dec = MultiScanDecoder::new(k, m, enc_b.table().clone(), ClockRatio::new(p));
        b.iter(|| black_box(dec.run(&bits_b, cubes).expect("decodes").decoder.soc_ticks));
    });

    group.bench_function("4c_parallel_decoders", |b| {
        let arch = ParallelDecoders::new(k, m, ClockRatio::new(p)).expect("valid geometry");
        b.iter(|| {
            black_box(
                arch.compress_and_run(cubes, FillStrategy::Zero)
                    .expect("decodes")
                    .soc_ticks,
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_table2_compression,
    bench_table4_baselines,
    bench_motivation,
    bench_table5_decompress,
    bench_table7_freqdir,
    bench_table8_large,
    bench_throughput,
    bench_fig2_fsm,
    bench_fig4_architectures
);
criterion_main!(benches);
