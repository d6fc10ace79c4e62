//! Criterion bench: container commit throughput, recovery replay, and the
//! frame codec (CRC-32 alone, and one whole `Put` frame).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wv_storage::{frame, Container, ObjectId, Record, TxId, Version};

fn filled_container(txns: u64, puts_per_txn: u64) -> Container {
    let mut c = Container::new();
    for t in 0..txns {
        let tx = c.begin().expect("begin");
        for p in 0..puts_per_txn {
            c.stage_put(
                tx,
                ObjectId(p % 16),
                Version(t + 1),
                Bytes::from_static(b"some representative contents"),
            )
            .expect("stage");
        }
        c.commit(tx).expect("commit");
    }
    c
}

fn bench_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_wal");

    group.bench_function("commit_small_txns", |b| {
        b.iter(|| criterion::black_box(filled_container(100, 1).len()));
    });

    group.bench_function("commit_wide_txns", |b| {
        b.iter(|| criterion::black_box(filled_container(10, 50).len()));
    });

    group.bench_function("prepare_commit_2pc_path", |b| {
        b.iter(|| {
            let mut cont = Container::new();
            for t in 0..100u64 {
                let tx = cont.begin().expect("begin");
                cont.stage_put(tx, ObjectId(1), Version(t + 1), Bytes::from_static(b"v"))
                    .expect("stage");
                cont.prepare_with_note(tx, t).expect("prepare");
                cont.commit(tx).expect("commit");
            }
            criterion::black_box(cont.wal().flushes())
        });
    });

    for txns in [100u64, 1000] {
        group.bench_with_input(
            BenchmarkId::new("recovery_replay", txns),
            &txns,
            |b, &txns| {
                let full = filled_container(txns, 4);
                b.iter(|| {
                    let recovered = Container::recover_from(full.wal().clone());
                    criterion::black_box(recovered.len())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("recovery_replay_checkpointed", txns),
            &txns,
            |b, &txns| {
                let mut full = filled_container(txns, 4);
                full.checkpoint().expect("checkpoint");
                b.iter(|| {
                    let recovered = Container::recover_from(full.wal().clone());
                    criterion::black_box(recovered.len())
                });
            },
        );
    }
    for len in [64usize, 1024, 8192] {
        let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
        group.bench_with_input(BenchmarkId::new("crc32", len), &data, |b, data| {
            b.iter(|| frame::crc32(criterion::black_box(data)));
        });
    }

    group.bench_function("encode_frame/put_1k", |b| {
        let record = Record::Put {
            tx: TxId(7),
            object: ObjectId(1),
            version: Version(9),
            value: (0..1024).map(|i| i as u8).collect::<Vec<u8>>().into(),
        };
        let mut image = Vec::with_capacity(2048);
        b.iter(|| {
            image.clear();
            frame::encode_into(&mut image, criterion::black_box(&record))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_storage);
criterion_main!(benches);
