//! The process-wide resident-bytes accounting of the parse caches.
//!
//! `cache::bytes_resident` sums every cache and fragment pool in the
//! process, so these tests live in a binary of their own and run one at
//! a time: no other test parses into or clears a cache beside one while
//! it reads the total.

use std::sync::{Arc, Mutex};

use yalla_cpp::cache::bytes_resident;
use yalla_cpp::vfs::Vfs;
use yalla_cpp::{FragmentPool, ParseCache};

static LOCK: Mutex<()> = Mutex::new(());

fn vfs() -> Vfs {
    let mut v = Vfs::new();
    v.add_file("lib.hpp", "#pragma once\nnamespace l { class C; }\n");
    v.add_file("other.hpp", "#pragma once\nint unrelated;\n");
    v.add_file("main.cpp", "#include \"lib.hpp\"\nint y;\n");
    v
}

#[test]
fn resident_accounting_balances_on_clear() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let v = vfs();
    let before = bytes_resident();
    let cache = ParseCache::new();
    cache.parse(&v, &[], "main.cpp").unwrap();
    assert!(cache.resident_bytes() > 0);
    assert!(bytes_resident() >= before + cache.resident_bytes());
    cache.clear();
    assert_eq!(cache.resident_bytes(), 0);
}

#[test]
fn a_shared_fragment_stays_resident_until_its_last_holder_goes() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut v = vfs();
    v.add_file("b.cpp", "#include \"lib.hpp\"\nint b;\n");
    let before = bytes_resident();
    let pool = Arc::new(FragmentPool::new());
    let builder = ParseCache::new().with_pool(Arc::clone(&pool));
    let reuser = ParseCache::new().with_pool(Arc::clone(&pool));
    builder.parse(&v, &[], "main.cpp").unwrap();
    reuser.parse(&v, &[], "b.cpp").unwrap();
    let fragment = pool.bytes();
    assert!(fragment > 0);
    let entries = |c: &ParseCache| c.resident_bytes() - fragment;
    assert_eq!(
        bytes_resident(),
        before + entries(&builder) + entries(&reuser) + fragment,
        "the shared fragment counts once"
    );
    // The cache whose parse built the fragment lets it go; the other
    // still holds it, so it still counts.
    builder.clear();
    assert_eq!(pool.bytes(), fragment);
    assert_eq!(bytes_resident(), before + reuser.resident_bytes());
    reuser.clear();
    assert_eq!(pool.bytes(), 0);
    assert_eq!(bytes_resident(), before);
}
