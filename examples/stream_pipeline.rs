//! A stream-processing pipeline over message channels.
//!
//! ```text
//! cargo run --release --example stream_pipeline [-- items]
//! ```
//!
//! Interacting parallel computations, literally: four pipeline stages
//! connected by mpsc channels, fed by an external producer thread (the
//! "network"). Each stage's receive suspends through the latency-hiding
//! machinery when its queue is empty — the worker moves on to other stages
//! instead of blocking — so a handful of workers can drive many stages plus
//! the fork-join work the stages spawn internally.
//!
//! Pipeline: ingest → parse → enrich (fork-join per item) → aggregate.

use std::time::{Duration, Instant};

use lhws::channel::mpsc;
use lhws::{fork2, spawn, Runtime};

fn fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let items: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(500);

    let rt = Runtime::builder().workers(4).build().unwrap();

    // Stage channels.
    let (raw_tx, mut raw_rx) = mpsc::<String>();
    let (parsed_tx, mut parsed_rx) = mpsc::<u64>();
    let (enriched_tx, mut enriched_rx) = mpsc::<(u64, u64)>();

    // The outside world: a plain OS thread feeding the first stage.
    let producer = std::thread::spawn(move || {
        for i in 0..items {
            raw_tx.send(format!("event:{i}")).unwrap();
            if i % 64 == 0 {
                std::thread::sleep(Duration::from_millis(1)); // bursty source
            }
        }
    });

    let start = Instant::now();
    let (count, checksum) = rt.block_on(async move {
        // Stage 1: parse "event:<n>" into n.
        let parse = spawn(async move {
            while let Some(line) = raw_rx.recv().await {
                let n: u64 = line.strip_prefix("event:").unwrap().parse().unwrap();
                parsed_tx.send(n).unwrap();
            }
            // Dropping parsed_tx closes the downstream channel.
        });

        // Stage 2: enrich each event with a fork-join computation.
        let enrich = spawn(async move {
            while let Some(n) = parsed_rx.recv().await {
                let (a, b) = fork2(async move { fib(12 + (n % 5)) }, async move {
                    (n * 2654435761) % 1000
                })
                .await;
                enriched_tx.send((n, a + b)).unwrap();
            }
        });

        // Stage 3: aggregate.
        let mut count = 0u64;
        let mut checksum = 0u64;
        while let Some((_n, score)) = enriched_rx.recv().await {
            count += 1;
            checksum = checksum.wrapping_add(score);
        }
        parse.await;
        enrich.await;
        (count, checksum)
    });
    let elapsed = start.elapsed();
    producer.join().unwrap();

    assert_eq!(count, items);
    println!("processed {count} events in {elapsed:?} (checksum {checksum:x})");
    let m = rt.metrics();
    println!(
        "stage receives suspended {} times, resumed {}; deques allocated: {}",
        m.suspensions, m.resumes, m.deques_allocated
    );
}
