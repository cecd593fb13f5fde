//! A long-lived daemon must not keep a closed connection's thread.
//!
//! Each connection runs on a handler thread whose stack stays mapped
//! until the thread is joined. If the accept loop kept every handle
//! until drain, each closed connection would leave its stack and guard
//! page in the address space, two memory maps per connection, and after
//! some tens of thousands of connections (`vm.max_map_count`) the daemon
//! could no longer spawn threads and would stop serving.
//!
//! This file holds one test so that no other test's threads share the
//! process and move its `/proc/self/maps` count.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiLibrary, SiLibraryBuilder};
use rispp_serve::{run_daemon, Server, ServerConfig};

/// Sequential connections measured.
const CONNECTIONS: usize = 200;
/// Most memory maps the process may gain over [`CONNECTIONS`]
/// connections. Keeping every handler until drain gains two per
/// connection (400), over four times this bound.
const MAX_MAPS_GROWN: usize = 100;

fn library() -> SiLibrary {
    let universe = AtomUniverse::from_types([AtomTypeInfo::new("A1")]).unwrap();
    let mut b = SiLibraryBuilder::new(universe);
    b.special_instruction("X", 1_000)
        .unwrap()
        .molecule(Molecule::from_counts([1]), 50)
        .unwrap();
    b.build().unwrap()
}

fn maps() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// One connection: a health probe, its answer, then close.
fn health(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"{\"op\":\"health\"}\n").expect("send");
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("answer");
    assert!(line.contains(r#""ok":true"#), "{line}");
}

#[test]
fn closed_connections_release_their_handler_threads() {
    let server = Server::start(
        library(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let stop = Arc::new(AtomicBool::new(false));
    let daemon = std::thread::spawn({
        let (server, stop) = (server.clone(), Arc::clone(&stop));
        move || run_daemon(&server, listener, &stop)
    });
    // Warm up first, so the allocator's per-thread arenas and cached
    // thread stacks exist before the count is taken.
    for _ in 0..20 {
        health(addr);
    }
    let before = maps();
    for _ in 0..CONNECTIONS {
        health(addr);
    }
    let after = maps();
    stop.store(true, Ordering::Release);
    daemon.join().expect("daemon thread").expect("daemon");
    let grown = after.saturating_sub(before);
    assert!(
        grown < MAX_MAPS_GROWN,
        "{CONNECTIONS} sequential connections grew the process by {grown} memory maps \
         ({before} -> {after}); closed connections' threads are not being joined"
    );
}
