//! Microbench: linear first-match scan vs the compiled lookup index, on
//! tables shaped like the paper's per-tag NES deployment (tag-guarded
//! `tag, ip_dst → port` runs with a trailing wildcard drop), at 16, 128,
//! and 1024 rules.
//!
//! Each iteration resolves [`PACKETS_PER_ITER`] packets cycling through
//! hits on every priority level plus guaranteed misses, so both paths do
//! identical semantic work.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netkat::{Action, ActionSet, Field, FlowTable, Match, Packet, Rule};

const PACKETS_PER_ITER: u64 = 256;
const TAGS: u64 = 2;

/// A tag-guarded forwarding table with `n` rules: `n / TAGS` destinations
/// per tag, plus a trailing wildcard drop.
fn guarded_table(n: u64) -> FlowTable {
    let per_tag = n / TAGS;
    let mut rules = Vec::new();
    for tag in 0..TAGS {
        for dst in 0..per_tag {
            rules.push(Rule::new(
                Match::new().with(Field::Tag, tag).with(Field::IpDst, dst),
                ActionSet::single(Action::assign(Field::Port, dst % 8)),
            ));
        }
    }
    rules.push(Rule::drop_all());
    FlowTable::from_rules(rules)
}

/// Packets spread over every priority level of the table, with one in
/// eight missing entirely (falling through to the wildcard drop).
fn packets(n: u64) -> Vec<Packet> {
    (0..PACKETS_PER_ITER)
        .map(|i| {
            let dst = if i % 8 == 7 { n + i } else { (i * 7) % (n / TAGS) };
            Packet::new().with(Field::Tag, i % TAGS).with(Field::IpDst, dst).with(Field::Port, 1)
        })
        .collect()
}

fn bench_flow_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_lookup");
    group.sample_size(30).throughput(Throughput::Elements(PACKETS_PER_ITER));
    for n in [16u64, 128, 1024] {
        let table = guarded_table(n);
        let compiled = table.compile();
        let pks = packets(n);
        group.bench_function(format!("linear/{n}"), |b| {
            b.iter(|| pks.iter().map(|pk| table.apply(pk).len()).sum::<usize>())
        });
        group.bench_function(format!("indexed/{n}"), |b| {
            b.iter(|| pks.iter().map(|pk| compiled.apply(pk).len()).sum::<usize>())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flow_lookup);
criterion_main!(benches);
