//! Pins the allocation budget of the language front end on the storm's
//! query shape, a 2-replica HDFS write. Tokens borrow the query text, so
//! lexing allocates only the token vector; parsing allocates only AST
//! nodes; resolving keys its name table on the AST's own strings.
//!
//! A counting `#[global_allocator]` wraps the system allocator, so this
//! file holds exactly one `#[test]` — parallel tests would pollute the
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cloudtalk_lang::builder::hdfs_write_query;
use cloudtalk_lang::lexer::lex;
use cloudtalk_lang::problem::Address;
use cloudtalk_lang::{parse_query, resolve, MapResolver};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// Only the measured thread is counted: the libtest harness thread can
// allocate concurrently while the measured window is open.
thread_local! {
    static COUNTED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count_alloc() {
    if COUNTED.with(|c| c.get()) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNTED.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    let after = ALLOCS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(false));
    (out, after - before)
}

#[test]
fn front_end_allocation_budget() {
    let nodes: Vec<Address> = (1..=4).map(Address).collect();
    let text = hdfs_write_query(Address(20_001), &nodes, 2, 1e6).text();

    let (tokens, lex_allocs) = allocations(|| lex(&text).expect("lexes"));
    let (query, parse_allocs) = allocations(|| parse_query(&text).expect("parses"));
    let (problem, resolve_allocs) =
        allocations(|| resolve(&query, &MapResolver::new()).expect("resolves"));
    assert_eq!(problem.flows.len(), 4);
    assert!(tokens.len() > 40, "lexed only {} tokens", tokens.len());

    assert_eq!(lex_allocs, 1, "lexing allocates only the token vector");
    // 16 identifier strings, 4 attribute lists, the pool, the name list
    // (grown once) and the statement list (grown once), plus the tokens.
    assert!(
        parse_allocs <= 26,
        "parse_query allocated {parse_allocs} times"
    );
    // Per variable its name and pool (the last takes the original), per
    // flow its name, plus the variable and flow lists and the name table.
    assert!(
        resolve_allocs <= 11,
        "resolve allocated {resolve_allocs} times"
    );
}
