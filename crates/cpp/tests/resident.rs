//! The process-wide resident-bytes accounting of the parse caches.
//!
//! `cache::bytes_resident` sums every cache in the process, so this test
//! lives in a binary of its own: no other test parses into or clears a
//! cache beside it while it reads the total.

use yalla_cpp::cache::bytes_resident;
use yalla_cpp::vfs::Vfs;
use yalla_cpp::ParseCache;

#[test]
fn resident_accounting_balances_on_clear() {
    let mut v = Vfs::new();
    v.add_file("lib.hpp", "#pragma once\nnamespace l { class C; }\n");
    v.add_file("other.hpp", "#pragma once\nint unrelated;\n");
    v.add_file("main.cpp", "#include \"lib.hpp\"\nint y;\n");
    let before = bytes_resident();
    let cache = ParseCache::new();
    cache.parse(&v, &[], "main.cpp").unwrap();
    assert!(cache.resident_bytes() > 0);
    assert!(bytes_resident() >= before + cache.resident_bytes());
    cache.clear();
    assert_eq!(cache.resident_bytes(), 0);
}
