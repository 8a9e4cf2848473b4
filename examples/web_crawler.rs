//! A parallel web crawler over a synthetic site graph.
//!
//! ```text
//! cargo run --release --example web_crawler [-- pages latency_max_ms]
//! ```
//!
//! The motivating workload class from the paper's introduction:
//! applications that "communicate with external agents such as the user,
//! the file system, a remote client or server". Fetching a page incurs
//! network latency (simulated, uniform per URL); parsing it yields links
//! that are crawled in parallel. Thousands of fetches can be in flight —
//! a large, *dynamic* suspension width that no static schedule could
//! anticipate, which is exactly what the online scheduler handles.
//!
//! The synthetic "web" is a deterministic graph: page `p` links to
//! `2p + 1` and `2p + 2` while they are below the page count (a binary
//! tree plus a few cross links), so results are checkable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhws::{fork2, LatencyMode, LatencyProfile, RemoteService, Runtime};

struct Web {
    pages: u64,
    net: RemoteService,
    fetched: AtomicU64,
}

impl Web {
    /// "Downloads" page `p`: network latency, then returns its links.
    async fn fetch(&self, p: u64) -> Vec<u64> {
        let links = self
            .net
            .request(p, |p| {
                let mut ls = Vec::new();
                for c in [2 * p + 1, 2 * p + 2] {
                    if c < self.pages {
                        ls.push(c);
                    }
                }
                ls
            })
            .await;
        self.fetched.fetch_add(1, Ordering::Relaxed);
        links
    }
}

/// Crawls `page` and, in parallel, everything reachable from it. Returns
/// the number of pages crawled in this subtree.
fn crawl(
    web: Arc<Web>,
    page: u64,
) -> std::pin::Pin<Box<dyn std::future::Future<Output = u64> + Send>> {
    Box::pin(async move {
        let links = web.fetch(page).await;
        match links.as_slice() {
            [] => 1,
            [only] => 1 + crawl(web.clone(), *only).await,
            [a, b] => {
                let (ca, cb) = fork2(crawl(web.clone(), *a), crawl(web.clone(), *b)).await;
                1 + ca + cb
            }
            _ => unreachable!("synthetic web has <= 2 links per page"),
        }
    })
}

fn run(mode: LatencyMode, pages: u64, max_ms: u64) -> (Duration, u64) {
    let rt = Runtime::builder().workers(4).mode(mode).build().unwrap();
    let web = Arc::new(Web {
        pages,
        net: RemoteService::new(
            "httpd",
            LatencyProfile::Uniform(Duration::from_millis(1), Duration::from_millis(max_ms)),
        ),
        fetched: AtomicU64::new(0),
    });
    let w2 = web.clone();
    let start = Instant::now();
    let crawled = rt.block_on(async move { crawl(w2, 0).await });
    let elapsed = start.elapsed();
    assert_eq!(crawled, pages, "every page crawled exactly once");
    assert_eq!(web.fetched.load(Ordering::Relaxed), pages);
    (elapsed, crawled)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pages: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(511);
    let max_ms: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20);

    println!("crawling a synthetic web of {pages} pages, 1–{max_ms}ms per fetch, P=4\n");

    let (hide, n) = run(LatencyMode::Hide, pages, max_ms);
    println!("latency-hiding work stealing: {n} pages in {hide:?}");

    let (block, n) = run(LatencyMode::Block, pages, max_ms);
    println!("blocking work stealing:       {n} pages in {block:?}");

    println!(
        "\nLHWS kept up to hundreds of fetches in flight; WS at most 4 (one per worker).\n\
         speed ratio: {:.1}x",
        block.as_secs_f64() / hide.as_secs_f64()
    );
}
