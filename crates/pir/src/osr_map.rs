//! Loop-header matching between a baseline function and a variant.
//!
//! On-stack replacement transfers a live frame from a baseline function
//! into a recompiled variant *at a loop header*, so the first proof
//! obligation is structural: which variant block corresponds to each
//! baseline header, and how do the live registers line up? For the
//! paper's own transformation space (non-temporal hint flips) the variant
//! is shape-identical and the answer is the identity map. Across the
//! optimizer's rewrites (`pcc::opt`) block and register numbering may
//! shift, so [`map_headers`] falls back to fingerprint matching over the
//! dominator tree and loop nest ([`crate::loops`]): two headers
//! correspond only when their nesting depth, loop-body shape (computed
//! from the dominator tree's back edges), and outgoing-call structure
//! all agree, uniquely on both sides.
//!
//! Matching is deliberately conservative: any structural divergence the
//! fingerprints cannot resolve is a typed [`MapRefusal`], never a guess —
//! a wrong correspondence would let the transfer prover certify a jump
//! into the wrong loop. The map itself proves nothing; it only *proposes*
//! the correspondence that [`crate::equiv::prove_osr_transfer`] then
//! verifies by cut-point simulation.

use std::fmt;

use crate::dataflow::{is_reducible, Cfg, Dominators, Liveness};
use crate::ids::{BlockId, Reg};
use crate::inst::Inst;
use crate::loops::{self, latches};
use crate::module::Function;

/// One matched loop-header pair with its live-register correspondence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeaderPair {
    /// The baseline-side header.
    pub baseline: BlockId,
    /// The corresponding variant-side header.
    pub variant: BlockId,
    /// `(baseline register, variant register)` per live-in register at
    /// the header, ascending by baseline register. The transfer prover
    /// seeds one shared cut symbol per pair.
    pub live: Vec<(Reg, Reg)>,
}

/// The header correspondence between a baseline function and a variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OsrMap {
    /// Matched pairs, in baseline header discovery order.
    pub pairs: Vec<HeaderPair>,
}

impl OsrMap {
    /// The pair anchored at baseline header `h`, if matched.
    pub fn pair_for(&self, h: BlockId) -> Option<&HeaderPair> {
        self.pairs.iter().find(|p| p.baseline == h)
    }
}

/// Why no header correspondence could be established. Typed so the OSR
/// prover and its callers can report refusals without string matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MapRefusal {
    /// The two sides declare different parameter counts; frames are not
    /// even shape-compatible.
    SignatureMismatch {
        /// Baseline parameter count.
        baseline: u32,
        /// Variant parameter count.
        variant: u32,
    },
    /// One side's control flow is irreducible, so its natural-loop
    /// structure (and thus any header fingerprint) is not well defined.
    Irreducible {
        /// `true` if the variant side is the irreducible one.
        variant: bool,
    },
    /// The sides have different numbers of natural-loop headers.
    HeaderCountMismatch {
        /// Baseline header count.
        baseline: usize,
        /// Variant header count.
        variant: usize,
    },
    /// Two baseline headers share a fingerprint, so no unique
    /// correspondence exists.
    AmbiguousFingerprint {
        /// One of the colliding baseline headers.
        baseline: BlockId,
    },
    /// A baseline header has no variant header with the same fingerprint.
    UnmatchedHeader {
        /// The unmatched baseline header.
        baseline: BlockId,
    },
    /// A matched pair's live-in register sets differ, so no identity
    /// correspondence exists and compensation synthesis is left to the
    /// prover's caller.
    LiveSetMismatch {
        /// The baseline header of the mismatched pair.
        baseline: BlockId,
        /// The variant header of the mismatched pair.
        variant: BlockId,
    },
}

impl fmt::Display for MapRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapRefusal::SignatureMismatch { baseline, variant } => {
                write!(f, "parameter counts differ ({baseline} vs {variant})")
            }
            MapRefusal::Irreducible { variant } => {
                let side = if *variant { "variant" } else { "baseline" };
                write!(f, "{side} control flow is irreducible")
            }
            MapRefusal::HeaderCountMismatch { baseline, variant } => {
                write!(f, "header counts differ ({baseline} vs {variant})")
            }
            MapRefusal::AmbiguousFingerprint { baseline } => {
                write!(f, "fingerprint of baseline header {baseline} is ambiguous")
            }
            MapRefusal::UnmatchedHeader { baseline } => {
                write!(f, "baseline header {baseline} has no variant counterpart")
            }
            MapRefusal::LiveSetMismatch { baseline, variant } => {
                write!(
                    f,
                    "live-in registers differ at matched pair {baseline}/{variant}"
                )
            }
        }
    }
}

/// Structural fingerprint of one loop header, comparison-only.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Fingerprint {
    depth: u32,
    body_blocks: usize,
    latch_count: usize,
    loads: usize,
    stores: usize,
    calls: usize,
    /// Callee ids of calls inside the loop body, sorted.
    callees: Vec<u32>,
    /// Header terminator shape: 0 = br, 1 = condbr, 2 = ret.
    term_shape: u8,
}

fn fingerprint(
    func: &Function,
    cfg: &Cfg,
    dom: &Dominators,
    linfo: &loops::LoopInfo,
    header: BlockId,
) -> Fingerprint {
    let body = loops::natural_loop(cfg, dom, header);
    let (mut loads, mut stores, mut calls) = (0, 0, 0);
    let mut callees = Vec::new();
    for &b in &body {
        for inst in &func.block(b).insts {
            match inst {
                Inst::Load { .. } => loads += 1,
                Inst::Store { .. } => stores += 1,
                Inst::Call { callee, .. } => {
                    calls += 1;
                    callees.push(callee.0);
                }
                _ => {}
            }
        }
    }
    callees.sort_unstable();
    let term_shape = match func.block(header).term {
        crate::inst::Term::Br(_) => 0,
        crate::inst::Term::CondBr { .. } => 1,
        crate::inst::Term::Ret(_) => 2,
    };
    Fingerprint {
        depth: linfo.depth(header),
        body_blocks: body.len(),
        latch_count: latches(cfg, dom, header).len(),
        loads,
        stores,
        calls,
        callees,
        term_shape,
    }
}

/// `true` when the two bodies are syntactically identical except for load
/// locality bits — the shape every legal NT variant has, for which the
/// header map is trivially the identity.
fn identical_modulo_locality(baseline: &Function, variant: &Function) -> bool {
    baseline.params() == variant.params()
        && baseline.block_count() == variant.block_count()
        && baseline
            .blocks()
            .iter()
            .zip(variant.blocks())
            .all(|(b, v)| {
                b.term == v.term
                    && b.insts.len() == v.insts.len()
                    && b.insts.iter().zip(&v.insts).all(|(bi, vi)| match (bi, vi) {
                        (
                            Inst::Load {
                                dst: da,
                                base: ba,
                                offset: oa,
                                ..
                            },
                            Inst::Load {
                                dst: db,
                                base: bb,
                                offset: ob,
                                ..
                            },
                        ) => da == db && ba == bb && oa == ob,
                        _ => bi == vi,
                    })
            })
}

fn live_in_regs(func: &Function, cfg: &Cfg, block: BlockId) -> Vec<Reg> {
    let lv = Liveness::new(func);
    let sol = lv.solve(cfg);
    lv.live_in(&sol, block)
        .iter()
        .map(|r| Reg(r as u32))
        .collect()
}

/// Matches every baseline loop header to a variant header, with a
/// per-header live-register correspondence.
///
/// Shape-identical pairs (modulo load locality, i.e. every legal NT
/// variant) take the identity fast path. Rewritten variants are matched
/// by structural fingerprint — uniquely, or not at all.
///
/// # Errors
///
/// Returns the typed [`MapRefusal`] describing the first structural
/// divergence that prevented a unique correspondence.
pub fn map_headers(baseline: &Function, variant: &Function) -> Result<OsrMap, MapRefusal> {
    if baseline.params() != variant.params() {
        return Err(MapRefusal::SignatureMismatch {
            baseline: baseline.params(),
            variant: variant.params(),
        });
    }
    let cfg_b = Cfg::new(baseline);
    let linfo_b = loops::analyze_in(baseline, &cfg_b);
    if identical_modulo_locality(baseline, variant) {
        let pairs = linfo_b
            .headers()
            .iter()
            .map(|&h| HeaderPair {
                baseline: h,
                variant: h,
                live: live_in_regs(baseline, &cfg_b, h)
                    .into_iter()
                    .map(|r| (r, r))
                    .collect(),
            })
            .collect();
        return Ok(OsrMap { pairs });
    }

    let dom_b = Dominators::compute(&cfg_b);
    if !is_reducible(&cfg_b, &dom_b) {
        return Err(MapRefusal::Irreducible { variant: false });
    }
    let cfg_v = Cfg::new(variant);
    let dom_v = Dominators::compute(&cfg_v);
    if !is_reducible(&cfg_v, &dom_v) {
        return Err(MapRefusal::Irreducible { variant: true });
    }
    let linfo_v = loops::analyze_in(variant, &cfg_v);
    if linfo_b.headers().len() != linfo_v.headers().len() {
        return Err(MapRefusal::HeaderCountMismatch {
            baseline: linfo_b.headers().len(),
            variant: linfo_v.headers().len(),
        });
    }
    let fp_b: Vec<Fingerprint> = linfo_b
        .headers()
        .iter()
        .map(|&h| fingerprint(baseline, &cfg_b, &dom_b, &linfo_b, h))
        .collect();
    let fp_v: Vec<Fingerprint> = linfo_v
        .headers()
        .iter()
        .map(|&h| fingerprint(variant, &cfg_v, &dom_v, &linfo_v, h))
        .collect();
    let mut pairs = Vec::with_capacity(fp_b.len());
    for (i, &hb) in linfo_b.headers().iter().enumerate() {
        if fp_b
            .iter()
            .enumerate()
            .any(|(j, f)| j != i && *f == fp_b[i])
        {
            return Err(MapRefusal::AmbiguousFingerprint { baseline: hb });
        }
        let matches: Vec<usize> = fp_v
            .iter()
            .enumerate()
            .filter(|(_, f)| **f == fp_b[i])
            .map(|(j, _)| j)
            .collect();
        let [j] = matches.as_slice() else {
            return Err(MapRefusal::UnmatchedHeader { baseline: hb });
        };
        let hv = linfo_v.headers()[*j];
        let live_b = live_in_regs(baseline, &cfg_b, hb);
        let live_v = live_in_regs(variant, &cfg_v, hv);
        if live_b != live_v {
            return Err(MapRefusal::LiveSetMismatch {
                baseline: hb,
                variant: hv,
            });
        }
        pairs.push(HeaderPair {
            baseline: hb,
            variant: hv,
            live: live_b.into_iter().map(|r| (r, r)).collect(),
        });
    }
    Ok(OsrMap { pairs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{Locality, Term};
    use crate::module::Block;

    fn looped() -> Function {
        let mut b = FunctionBuilder::new("f", 1);
        let p = b.param(0);
        let acc0 = b.const_(0);
        let acc = b.accumulate_loop(0, 8, 1, acc0, |b, i, acc| {
            let x = b.add(i, p);
            b.add_into(acc, acc, x);
        });
        b.ret(Some(acc));
        b.finish()
    }

    #[test]
    fn identity_map_for_identical_functions() {
        let f = looped();
        let map = map_headers(&f, &f).expect("identity maps");
        assert_eq!(map.pairs.len(), 1);
        let p = &map.pairs[0];
        assert_eq!(p.baseline, p.variant);
        assert!(!p.live.is_empty());
        assert!(p.live.iter().all(|(a, b)| a == b));
        assert_eq!(map.pair_for(p.baseline), Some(p));
    }

    #[test]
    fn locality_flips_take_the_identity_fast_path() {
        let mut b = FunctionBuilder::new("f", 0);
        let g = b.const_(64);
        b.counted_loop(0, 4, 1, |b, i| {
            let off = b.shl_imm(i, 3);
            let a = b.add(g, off);
            let _ = b.load(a, 0, Locality::Normal);
        });
        b.ret(None);
        let base = b.finish();
        let mut variant = base.clone();
        for blk in variant.blocks_mut() {
            for inst in &mut blk.insts {
                if let Inst::Load { locality, .. } = inst {
                    *locality = Locality::NonTemporal;
                }
            }
        }
        let map = map_headers(&base, &variant).expect("NT variant maps");
        assert_eq!(map.pairs.len(), 1);
        assert_eq!(map.pairs[0].baseline, map.pairs[0].variant);
    }

    #[test]
    fn fingerprints_match_headers_across_block_renumbering() {
        // Same loop, but with an extra pass-through block spliced before
        // the loop in the variant, shifting all block ids by one.
        let build = |pad: bool| {
            let mut b = FunctionBuilder::new("f", 1);
            let p = b.param(0);
            if pad {
                let next = b.new_block();
                b.br(next);
                b.switch_to(next);
            }
            let acc0 = b.const_(0);
            let acc = b.accumulate_loop(0, 8, 1, acc0, |b, i, acc| {
                let x = b.add(i, p);
                b.add_into(acc, acc, x);
            });
            b.ret(Some(acc));
            b.finish()
        };
        let baseline = build(false);
        let variant = build(true);
        let map = map_headers(&baseline, &variant).expect("fingerprints line up");
        assert_eq!(map.pairs.len(), 1);
        assert_ne!(map.pairs[0].baseline, map.pairs[0].variant);
    }

    #[test]
    fn signature_mismatch_refused() {
        let f = looped();
        let g = Function::from_parts("f", 2, f.reg_count().max(2), f.blocks().to_vec());
        assert_eq!(
            map_headers(&f, &g),
            Err(MapRefusal::SignatureMismatch {
                baseline: 1,
                variant: 2
            })
        );
    }

    #[test]
    fn header_count_mismatch_refused() {
        let one = looped();
        let mut b = FunctionBuilder::new("f", 1);
        let p = b.param(0);
        b.counted_loop(0, 4, 1, |b, i| {
            let _ = b.add(i, p);
        });
        b.counted_loop(0, 4, 1, |b, i| {
            let _ = b.add(i, p);
        });
        b.ret(None);
        let two = b.finish();
        let err = map_headers(&one, &two).unwrap_err();
        assert!(
            matches!(err, MapRefusal::HeaderCountMismatch { .. }),
            "{err}"
        );
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn twin_loops_are_ambiguous() {
        // Two structurally identical sequential loops: no unique match.
        let mut b = FunctionBuilder::new("f", 1);
        let p = b.param(0);
        b.counted_loop(0, 4, 1, |b, i| {
            let _ = b.add(i, p);
        });
        b.counted_loop(0, 4, 1, |b, i| {
            let _ = b.add(i, p);
        });
        b.ret(None);
        let twins = b.finish();
        // Force the general path by padding the variant.
        let mut v = FunctionBuilder::new("f", 1);
        let p = v.param(0);
        let next = v.new_block();
        v.br(next);
        v.switch_to(next);
        v.counted_loop(0, 4, 1, |b, i| {
            let _ = b.add(i, p);
        });
        v.counted_loop(0, 4, 1, |b, i| {
            let _ = b.add(i, p);
        });
        v.ret(None);
        let err = map_headers(&twins, &v.finish()).unwrap_err();
        assert!(
            matches!(err, MapRefusal::AmbiguousFingerprint { .. }),
            "{err}"
        );
    }

    #[test]
    fn irreducible_side_refused() {
        let irr = Function::from_parts(
            "f",
            1,
            1,
            vec![
                Block::new(Term::CondBr {
                    cond: Reg(0),
                    then_bb: BlockId(1),
                    else_bb: BlockId(2),
                }),
                Block::new(Term::Br(BlockId(2))),
                Block::new(Term::Br(BlockId(1))),
            ],
        );
        let red = looped();
        assert_eq!(
            map_headers(&irr, &red),
            Err(MapRefusal::Irreducible { variant: false })
        );
        assert_eq!(
            map_headers(&red, &irr),
            Err(MapRefusal::Irreducible { variant: true })
        );
    }
}
