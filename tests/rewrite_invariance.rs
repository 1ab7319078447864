//! Propositions 7.3 and 8.1 as executable invariants: simplification and
//! linearization preserve chase finiteness and the maximal term depth.

use nuchase_engine::semi_oblivious_chase;
use nuchase_gen::{random_program, RandomConfig};
use nuchase_model::{parse_program, TgdClass};
use nuchase_rewrite::{linearize, simplify};

/// Prop 7.3 on a hand-picked linear suite covering the tricky cases.
#[test]
fn simplification_invariance_crafted() {
    for text in [
        "r(a, b).\nr(X, X) -> r(Z, X).",                      // Example 7.1
        "r(a, a).\nr(X, X) -> r(Z, X).",                      // diagonal data
        "r(a, b).\nr(X, Y) -> r(Y, Z).",                      // diverging
        "r(a, b).\nr(X, X) -> r(X, Z).\nr(X, Y) -> r(Y, Y).", // diagonal loop
        "r(a, b, a).\nr(X, Y, X) -> s(Y, X).\ns(X, Y) -> r(X, X, Y).",
        "p(a).\np(X) -> q(X, X).\nq(X, Y) -> p(Y).",
    ] {
        let mut p = parse_program(text).unwrap();
        let orig = semi_oblivious_chase(&p.database, &p.tgds, 30_000);
        let s = simplify(&p.database, &p.tgds, &mut p.symbols).unwrap();
        let simp = semi_oblivious_chase(&s.database, &s.tgds, 60_000);
        assert_eq!(
            orig.terminated(),
            simp.terminated(),
            "finiteness differs on:\n{text}"
        );
        if orig.terminated() {
            assert_eq!(
                orig.max_depth(),
                simp.max_depth(),
                "maxdepth differs on:\n{text}"
            );
        }
    }
}

/// Prop 7.3 on random linear programs.
#[test]
fn simplification_invariance_random() {
    for seed in 0..80u64 {
        let mut p = random_program(&RandomConfig {
            class: TgdClass::Linear,
            seed,
            ..Default::default()
        });
        let orig = semi_oblivious_chase(&p.database, &p.tgds, 30_000);
        let s = simplify(&p.database, &p.tgds, &mut p.symbols).unwrap();
        let simp = semi_oblivious_chase(&s.database, &s.tgds, 60_000);
        assert_eq!(orig.terminated(), simp.terminated(), "seed {seed}");
        if orig.terminated() {
            assert_eq!(orig.max_depth(), simp.max_depth(), "seed {seed}");
        }
    }
}

/// Prop 8.1 on a crafted guarded suite.
#[test]
fn linearization_invariance_crafted() {
    for text in [
        "r(a, b).\nr(X, Y) -> s(Y, Z).\ns(Y, Z) -> t(Y).",
        "r(a, b).\ns(a).\nr(X, Y), s(X) -> r(Y, Z), s(Y).", // diverging
        "r(a, b).\ns(b).\nr(X, Y), s(Y) -> r(Y, Z).",       // dies after a step
        "r(a, b).\nr(X, Y) -> s(X, Y, Z).\ns(X, Y, Z) -> r(Y, X).",
        "e(a, b).\ne(b, c).\ne(X, Y) -> p(X).\np(X) -> q(X).",
    ] {
        let mut p = parse_program(text).unwrap();
        let orig = semi_oblivious_chase(&p.database, &p.tgds, 20_000);
        let lin = linearize(&p.database, &p.tgds, &mut p.symbols).unwrap();
        let linc = semi_oblivious_chase(&lin.database, &lin.tgds, 40_000);
        assert_eq!(
            orig.terminated(),
            linc.terminated(),
            "finiteness differs on:\n{text}"
        );
        if orig.terminated() {
            assert_eq!(
                orig.max_depth(),
                linc.max_depth(),
                "maxdepth differs on:\n{text}"
            );
        }
    }
}

/// Prop 8.1 on random guarded programs.
#[test]
fn linearization_invariance_random() {
    let mut checked = 0;
    for seed in 0..60u64 {
        let mut p = random_program(&RandomConfig {
            class: TgdClass::Guarded,
            seed,
            ..Default::default()
        });
        let orig = semi_oblivious_chase(&p.database, &p.tgds, 20_000);
        let Ok(lin) = linearize(&p.database, &p.tgds, &mut p.symbols) else {
            continue;
        };
        let linc = semi_oblivious_chase(&lin.database, &lin.tgds, 40_000);
        assert_eq!(orig.terminated(), linc.terminated(), "seed {seed}");
        if orig.terminated() {
            assert_eq!(orig.max_depth(), linc.max_depth(), "seed {seed}");
        }
        checked += 1;
    }
    assert!(checked > 30, "only {checked} samples linearized");
}

/// gsimple composes both invariances (Thm 8.3's reduction path).
#[test]
fn gsimple_invariance() {
    for text in [
        "r(a, b).\nr(X, Y) -> s(Y, Z).\ns(Y, Z) -> t(Y).",
        "r(a, b).\ns(a).\nr(X, Y), s(X) -> r(Y, Z), s(Y).",
    ] {
        let mut p = parse_program(text).unwrap();
        let orig = semi_oblivious_chase(&p.database, &p.tgds, 20_000);
        let (gs, _reg) = nuchase_rewrite::gsimple(&p.database, &p.tgds, &mut p.symbols).unwrap();
        let gsc = semi_oblivious_chase(&gs.database, &gs.tgds, 40_000);
        assert_eq!(orig.terminated(), gsc.terminated(), "{text}");
        if orig.terminated() {
            assert_eq!(orig.max_depth(), gsc.max_depth(), "{text}");
        }
    }
}

/// Simplification preserves the *number of atoms* of the chase as well?
/// No — only finiteness and depth are claimed by Prop 7.3; sizes differ
/// in general. Pin a witness so nobody "fixes" this into a wrong
/// invariant later: count atoms on a case where they genuinely differ.
#[test]
fn simplification_does_not_preserve_size() {
    // r(a,a) collapses to unary r[11](a): the simplified chase can have
    // a different atom count than the original.
    let mut p = parse_program("r(a, a).\nr(X, Y) -> s(X).\nr(X, X) -> t0.").unwrap();
    let orig = semi_oblivious_chase(&p.database, &p.tgds, 10_000);
    let s = simplify(&p.database, &p.tgds, &mut p.symbols).unwrap();
    let simp = semi_oblivious_chase(&s.database, &s.tgds, 10_000);
    assert!(orig.terminated() && simp.terminated());
    assert_eq!(orig.max_depth(), simp.max_depth());
    // Both contain the t0 witness, sizes happen to match or not — the
    // invariant we *rely on* is depth/finiteness only.
    let t0 = p.symbols.lookup_pred("t0").unwrap();
    assert!(orig.instance.iter().any(|a| a.pred == t0));
}

/// The four-rule tenant Σ and one tenant database: `employees`
/// employees over one department per eight of them. Every third
/// department is senior; every third employee outside a senior
/// department is active. With `diverges`, employee 0 also works, active,
/// in senior department 0, so the chase climbs its manager chain forever.
fn tenant_program(employees: usize, diverges: bool) -> String {
    let mut text = String::from(
        "emp(X, D), active(X) -> worksfor(X, D, M).\n\
         worksfor(X, D, M) -> mgr(M, D).\n\
         mgr(M, D), senior(D) -> emp(M, D), active(M).\n\
         emp(X, D) -> dept(D).\n",
    );
    let depts = (employees / 8).max(2);
    for e in 0..employees {
        let d = if diverges && e == 0 { 0 } else { e % depts };
        text.push_str(&format!("emp(e{e}, d{d}).\n"));
        if (diverges && e == 0) || (d % 3 != 0 && e % 3 == 0) {
            text.push_str(&format!("active(e{e}).\n"));
        }
    }
    for d in (0..depts).step_by(3) {
        text.push_str(&format!("senior(d{d}).\n"));
    }
    text
}

/// `linearize` and `gsimple` of one program, each on its own copy of
/// the program's symbol table: the types in interning order, lin(Σ) and
/// lin(D) in order, then gsimple's database and rules in order.
fn render_rewriting(p: &nuchase_model::Program) -> String {
    use nuchase_model::DisplayWith;
    use std::fmt::Write;
    let mut out = String::new();
    let mut symbols = p.symbols.clone();
    match linearize(&p.database, &p.tgds, &mut symbols) {
        Ok(lin) => {
            for n in 0..lin.registry.len() {
                let pred = symbols.lookup_pred(&format!("[t{n}]")).expect("type name");
                let ty = lin.registry.get_type(pred).expect("interned type");
                write!(out, "[t{n}] = {} |", ty.guard.display(&symbols)).unwrap();
                for side in &ty.side {
                    write!(out, " {}", side.display(&symbols)).unwrap();
                }
                out.push('\n');
            }
            write!(out, "{}", lin.tgds.display(&symbols)).unwrap();
            write!(out, "{}", lin.database.display(&symbols)).unwrap();
        }
        Err(e) => writeln!(out, "linearize: {e}").unwrap(),
    }
    let mut symbols = p.symbols.clone();
    match nuchase_rewrite::gsimple(&p.database, &p.tgds, &mut symbols) {
        Ok((gs, _)) => {
            write!(out, "{}", gs.database.display(&symbols)).unwrap();
            write!(out, "{}", gs.tgds.display(&symbols)).unwrap();
        }
        Err(e) => writeln!(out, "gsimple: {e}").unwrap(),
    }
    out
}

/// 64-bit FNV-1a: a digest that does not depend on the toolchain.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins the rewriting's exact output: linearize's registry, lin(Σ),
/// lin(D) and gsimple's output for Examples E.9 and E.10, the tenant Σ
/// on a terminating and a diverging tenant, and 40 random guarded
/// programs. The completion engine may change the order in which it
/// derives atoms, never the set, so none of this may move.
#[test]
fn rewriting_output_is_pinned() {
    let mut programs = vec![
        // Example E.9.
        parse_program(
            "r(a, a, b, c).\n\
             p(X, Y, X, U, W), s(X, U) -> r(U, Y, X, Z1), t(Z1, Z2, X).\n\
             r(X, X, Y, Z) -> q(X, Z).",
        )
        .unwrap(),
        // Example E.10.
        parse_program(
            "p(d, e, d, e, g).\ns(d, e).\ns(d, d).\n\
             p(X, Y, X, U, W), s(X, U) -> r(U, Y, X, Z1), t(Z1, Z2, X).\n\
             r(X, X, Y, Z) -> q(X, Z).",
        )
        .unwrap(),
        parse_program(&tenant_program(120, false)).unwrap(),
        parse_program(&tenant_program(150, true)).unwrap(),
    ];
    programs.extend((0..40u64).map(|seed| {
        random_program(&RandomConfig {
            class: TgdClass::Guarded,
            seed,
            ..Default::default()
        })
    }));
    let mut rendered = String::new();
    for (i, p) in programs.iter().enumerate() {
        rendered.push_str(&format!("# program {i}\n"));
        rendered.push_str(&render_rewriting(p));
    }
    assert_eq!(
        fnv1a(rendered.as_bytes()),
        17_314_609_380_525_315_853,
        "the rewriting's output moved ({} bytes rendered)",
        rendered.len()
    );
}
