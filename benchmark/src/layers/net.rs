//! `net` layer (`reactor.rs`, `shard.rs`, `tcp.rs`): kernel readiness to
//! task resumed, accept, and the per-request floor of a zero-compute echo.
//! All over loopback, with the server workload's worker count.

use std::io::{Read, Write};
use std::sync::mpsc;
use std::time::Duration;

use lhws::{LineReader, Reactor, Runtime, TcpListener, TcpStream};

use super::{repeat_percentiles, runtime, server_workers, Scale};
use crate::host::now_ns;
use crate::report::Metrics;

pub fn probe(scale: &Scale, m: &mut Metrics) {
    let rt = runtime(server_workers());
    let reactor = Reactor::builder(&rt)
        .build()
        .expect("epoll reactor builds on Linux");

    let (p50, p99) = repeat_percentiles(scale, || ready_roundtrip(&rt, &reactor, scale.iters(300)));
    m.put_summary("net.ready_roundtrip_us_p50", p50);
    m.put_summary("net.ready_roundtrip_us_p99", p99);
    let (p50, _) = repeat_percentiles(scale, || accept(&rt, &reactor, scale.iters(100)));
    m.put_summary("net.accept_us_p50", p50);
    let (p50, _) = repeat_percentiles(scale, || echo(&rt, &reactor, scale.iters(500)));
    m.put_summary("net.echo_rtt_us_p50", p50);
}

/// A connected loopback pair: the plain `std` end and the runtime's end.
fn pair(reactor: &Reactor) -> std::io::Result<(std::net::TcpStream, TcpStream)> {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
    let outside = std::net::TcpStream::connect(listener.local_addr()?)?;
    outside.set_nodelay(true)?;
    let (inside, _) = listener.accept()?;
    inside.set_nodelay(true)?;
    Ok((outside, TcpStream::from_std(inside, reactor)?))
}

/// µs from the outside thread writing a timestamp to the task being
/// resumed out of `read_ready`.
fn ready_roundtrip(rt: &Runtime, reactor: &Reactor, n: usize) -> Vec<f64> {
    let (mut outside, mut inside) = pair(reactor).expect("loopback pair");
    let task = rt.spawn(async move {
        let mut us = Vec::with_capacity(n);
        let mut buf = [0u8; 8];
        for _ in 0..n {
            inside.read_ready().await?;
            let resumed = now_ns();
            let mut got = 0;
            while got < buf.len() {
                got += match inside.read(&mut buf[got..]).await? {
                    0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                    k => k,
                };
            }
            us.push(resumed.saturating_sub(u64::from_le_bytes(buf)) as f64 / 1e3);
            inside.write_all(&[1]).await?;
        }
        std::io::Result::Ok(us)
    });
    let mut ack = [0u8; 1];
    for _ in 0..n {
        // Let the task suspend on the socket and its worker park.
        std::thread::sleep(Duration::from_micros(200));
        outside
            .write_all(&now_ns().to_le_bytes())
            .and_then(|()| outside.read_exact(&mut ack))
            .expect("loopback write/read");
    }
    rt.block_on(task).expect("ready probe task")
}

/// µs from `connect` on the outside thread to `accept` returning in a task.
fn accept(rt: &Runtime, reactor: &Reactor, n: usize) -> Vec<f64> {
    let listener = TcpListener::bind(reactor, ("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let (tx, rx) = mpsc::channel::<u64>();
    let task = rt.spawn(async move {
        for _ in 0..n {
            let (_stream, _peer) = listener.accept().await?;
            if tx.send(now_ns()).is_err() {
                break;
            }
        }
        std::io::Result::Ok(())
    });
    let us = (0..n)
        .map(|_| {
            std::thread::sleep(Duration::from_micros(200));
            let started = now_ns();
            let _conn = std::net::TcpStream::connect(addr).expect("connect");
            let accepted = rx.recv().expect("accept task alive");
            accepted.saturating_sub(started) as f64 / 1e3
        })
        .collect();
    rt.block_on(task).expect("accept probe task");
    us
}

/// Round-trip µs of one line through a zero-compute echo handler on one
/// connection: the floor under every `server-open` request.
fn echo(rt: &Runtime, reactor: &Reactor, n: usize) -> Vec<f64> {
    let (mut outside, inside) = pair(reactor).expect("loopback pair");
    let task = rt.spawn(async move {
        let mut reader = LineReader::new(inside);
        while let Some(mut line) = reader.read_line().await? {
            line.push('\n');
            reader.stream_mut().write_all(line.as_bytes()).await?;
        }
        std::io::Result::Ok(())
    });
    let mut reply = [0u8; 2];
    let us = (0..n)
        .map(|_| {
            let started = now_ns();
            outside
                .write_all(b"x\n")
                .and_then(|()| outside.read_exact(&mut reply))
                .expect("loopback write/read");
            (now_ns() - started) as f64 / 1e3
        })
        .collect();
    drop(outside);
    rt.block_on(task).expect("echo probe task");
    us
}
