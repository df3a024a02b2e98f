//! The session fixture shared by the session test binaries.

#![allow(dead_code)] // each test binary uses its own subset

use yalla::{Options, Session, Vfs};

/// The Figure 3 Kokkos-style fixture (same shape as the engine tests).
pub fn kokkos_vfs() -> Vfs {
    let mut vfs = Vfs::new();
    vfs.add_file(
        "Kokkos_Core.hpp",
        r#"
#pragma once
#include <Kokkos_Impl.hpp>
namespace Kokkos {
  class OpenMP;
  class LayoutRight {};
  template<class D, class L> class View {
  public:
    View();
    int& operator()(int i, int j);
    int extent(int d) const;
  };
  template<class S> class TeamPolicy {
  public:
    using member_type = Impl::HostThreadTeamMember<S>;
  };
  template<class M> Impl::TeamThreadRangeBoundariesStruct TeamThreadRange(M& m, int n);
  template<class R, class F> void parallel_for(R range, F functor);
  template<class T> T clamp_index(T v);
}
"#,
    );
    vfs.add_file(
        "Kokkos_Impl.hpp",
        r#"
#pragma once
namespace Kokkos { namespace Impl {
  struct TeamThreadRangeBoundariesStruct { int lo; int hi; };
  template<class P> class HostThreadTeamMember {
  public:
    int league_rank() const;
  };
} }
"#,
    );
    vfs.add_file(
        "functor.hpp",
        r#"#pragma once
#include <Kokkos_Core.hpp>
using sp_t = Kokkos::OpenMP;
using member_t = Kokkos::TeamPolicy<sp_t>::member_type;
struct add_y {
  int y;
  Kokkos::View<int**, Kokkos::LayoutRight> x;
  void operator()(member_t &m);
};
"#,
    );
    vfs.add_file(
        "kernel.cpp",
        r#"#include "functor.hpp"
void add_y::operator()(member_t &m) {
  int j = m.league_rank();
  Kokkos::parallel_for(
    Kokkos::TeamThreadRange(m, 5),
    [&](int i) { x(j, i) += y; });
}
"#,
    );
    vfs
}

pub fn kokkos_options() -> Options {
    Options {
        header: "Kokkos_Core.hpp".into(),
        sources: vec!["kernel.cpp".into(), "functor.hpp".into()],
        ..Options::default()
    }
}

pub fn kokkos_session() -> Session {
    Session::new(kokkos_options(), kokkos_vfs())
}

/// Appends `extra` (plus a newline) to `path` in the session's file tree.
pub fn append(session: &mut Session, path: &str, extra: &str) {
    let id = session.vfs().lookup(path).expect("file exists");
    let new_text = format!("{}{extra}\n", session.vfs().text(id));
    session.apply_edit(path, new_text).expect("edit applies");
}

/// Bumps the last digit of the last integer literal in `path` (`9` wraps
/// to `0`), so the edit moves no span in the file.
pub fn bump_literal(session: &mut Session, path: &str) {
    let id = session.vfs().lookup(path).expect("file exists");
    let text = session.vfs().text(id);
    let (mut word, mut last) = (None, None);
    for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
        match (word, c.is_ascii_alphanumeric() || c == '_') {
            (None, true) => word = Some(i),
            (Some(start), false) => {
                if text[start..i].bytes().all(|b| b.is_ascii_digit()) {
                    last = Some(i - 1);
                }
                word = None;
            }
            _ => {}
        }
    }
    let at = last.unwrap_or_else(|| panic!("{path} has no integer literal"));
    let digit = (text.as_bytes()[at] - b'0' + 1) % 10;
    let mut new_text = text.to_string();
    new_text.replace_range(at..=at, &digit.to_string());
    session.apply_edit(path, new_text).expect("edit applies");
}
