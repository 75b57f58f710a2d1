//! The embedded metadata blob: serialized IR plus link annex.
//!
//! The paper embeds the program's IR in the data region so the runtime
//! compiler can perform "rich analysis and transformations online". To
//! *relink* a recompiled function into the running process, the runtime
//! also needs the static link facts; we bundle them with the IR as a
//! **link annex**: function text addresses, per-function EVT slots, global
//! addresses, and the EVT base. The whole bundle is compressed with
//! [`pir::compress`].

use std::error::Error;
use std::fmt;

use pir::absint::{OsrCertificate, OsrLiveSlot};
use pir::compress::{compress, decompress, DecompressError};
use pir::encode::{decode_module, encode_module, DecodeError};
use pir::{BlockId, FuncId, GlobalId, Interval, Module, PtClass, Reg, TransferRecipe};

/// Static link facts the runtime compiler needs to lower a function
/// variant against the original image.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkInfo {
    /// Text address of each function body, indexed by [`pir::FuncId`].
    pub func_addrs: Vec<u32>,
    /// EVT slot of each function (None = calls to it are direct).
    pub func_evt_slot: Vec<Option<u32>>,
    /// Data address of each global, indexed by [`pir::GlobalId`].
    pub global_addrs: Vec<u64>,
    /// Data address of EVT slot 0.
    pub evt_base: u64,
}

impl LinkInfo {
    /// The EVT cell address for `func`, if its edges are virtualized.
    pub fn evt_cell(&self, func: pir::FuncId) -> Option<u64> {
        self.func_evt_slot[func.index()].map(|slot| self.evt_base + 8 * u64::from(slot))
    }
}

/// The full embedded bundle: the module IR plus the link annex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EmbeddedMeta {
    /// The program's IR, exactly as compiled.
    pub module: Module,
    /// Link facts for relinking variants.
    pub link: LinkInfo,
    /// OSR-point certificates for every certified loop header
    /// ([`pir::absint::certify_module`] output, certificates only). The
    /// runtime's OSR controller reads these to decide where a running
    /// frame may migrate into a variant. Empty when the module was
    /// compiled without protean support or by an older `pcc`.
    pub osr: Vec<OsrCertificate>,
    /// Proved OSR transfer recipes ([`pir::prove_osr_transfer`] output),
    /// one per certificate whose transfer the prover could close,
    /// derived against the module itself (identity remap). The runtime's
    /// OSR controller revalidates them per variant on its first arm and
    /// applies the proved ones verbatim. Empty for pre-transfer blobs.
    pub osr_recipes: Vec<TransferRecipe>,
}

/// Failure to decode an embedded metadata blob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetaError {
    /// Decompression failed.
    Decompress(DecompressError),
    /// IR decode failed.
    Module(DecodeError),
    /// The annex section was malformed.
    BadAnnex,
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaError::Decompress(e) => write!(f, "decompressing metadata: {e}"),
            MetaError::Module(e) => write!(f, "decoding embedded IR: {e}"),
            MetaError::BadAnnex => write!(f, "malformed link annex"),
        }
    }
}

impl Error for MetaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MetaError::Decompress(e) => Some(e),
            MetaError::Module(e) => Some(e),
            MetaError::BadAnnex => None,
        }
    }
}

fn put_varu(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Zigzag-folds a signed value so small magnitudes (of either sign)
/// stay short under the varint coding. Interval bounds are often exact
/// small constants or `i64::MIN`/`MAX` sentinels; both shapes code well.
fn zigzag(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn read_varu(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

impl EmbeddedMeta {
    /// Serializes and compresses the bundle into the blob `pcc` places in
    /// the data region.
    pub fn to_blob(&self) -> Vec<u8> {
        let module_bytes = encode_module(&self.module);
        let mut raw = Vec::with_capacity(module_bytes.len() + 256);
        put_varu(&mut raw, module_bytes.len() as u64);
        raw.extend_from_slice(&module_bytes);
        put_varu(&mut raw, self.link.func_addrs.len() as u64);
        for a in &self.link.func_addrs {
            put_varu(&mut raw, u64::from(*a));
        }
        for s in &self.link.func_evt_slot {
            match s {
                Some(slot) => put_varu(&mut raw, u64::from(*slot) + 1),
                None => put_varu(&mut raw, 0),
            }
        }
        put_varu(&mut raw, self.link.global_addrs.len() as u64);
        for a in &self.link.global_addrs {
            put_varu(&mut raw, *a);
        }
        put_varu(&mut raw, self.link.evt_base);
        put_varu(&mut raw, self.osr.len() as u64);
        for cert in &self.osr {
            put_varu(&mut raw, u64::from(cert.func.0));
            put_varu(&mut raw, u64::from(cert.header.0));
            put_varu(&mut raw, u64::from(cert.loop_depth));
            put_varu(&mut raw, cert.live.len() as u64);
            for slot in &cert.live {
                put_varu(&mut raw, u64::from(slot.reg.0));
                put_varu(&mut raw, zigzag(slot.range.lo));
                put_varu(&mut raw, zigzag(slot.range.hi));
                match slot.class {
                    PtClass::NotAddr => put_varu(&mut raw, 0),
                    PtClass::Unknown => put_varu(&mut raw, 1),
                    PtClass::Global(g) => {
                        put_varu(&mut raw, 2);
                        put_varu(&mut raw, u64::from(g.0));
                    }
                    PtClass::Param(p) => {
                        put_varu(&mut raw, 3);
                        put_varu(&mut raw, u64::from(p));
                    }
                }
            }
        }
        put_varu(&mut raw, self.osr_recipes.len() as u64);
        for r in &self.osr_recipes {
            put_varu(&mut raw, u64::from(r.func.0));
            put_varu(&mut raw, u64::from(r.baseline_header.0));
            put_varu(&mut raw, u64::from(r.variant_header.0));
            put_varu(&mut raw, r.moves.len() as u64);
            for (dst, src) in &r.moves {
                put_varu(&mut raw, u64::from(dst.0));
                put_varu(&mut raw, u64::from(src.0));
            }
            put_varu(&mut raw, r.consts.len() as u64);
            for (dst, value) in &r.consts {
                put_varu(&mut raw, u64::from(dst.0));
                put_varu(&mut raw, zigzag(*value));
            }
        }
        compress(&raw)
    }

    /// Decompresses and decodes a blob produced by [`Self::to_blob`].
    ///
    /// # Errors
    ///
    /// Returns a [`MetaError`] describing the first malformation.
    pub fn from_blob(blob: &[u8]) -> Result<EmbeddedMeta, MetaError> {
        let raw = decompress(blob).map_err(MetaError::Decompress)?;
        let mut pos = 0usize;
        let mlen = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)? as usize;
        if pos + mlen > raw.len() {
            return Err(MetaError::BadAnnex);
        }
        let module = decode_module(&raw[pos..pos + mlen]).map_err(MetaError::Module)?;
        pos += mlen;
        let nfuncs = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)? as usize;
        if nfuncs != module.functions().len() {
            return Err(MetaError::BadAnnex);
        }
        let mut func_addrs = Vec::with_capacity(nfuncs);
        for _ in 0..nfuncs {
            func_addrs.push(read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)? as u32);
        }
        let mut func_evt_slot = Vec::with_capacity(nfuncs);
        for _ in 0..nfuncs {
            let v = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
            func_evt_slot.push(if v == 0 { None } else { Some((v - 1) as u32) });
        }
        let nglobals = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)? as usize;
        if nglobals != module.globals().len() {
            return Err(MetaError::BadAnnex);
        }
        let mut global_addrs = Vec::with_capacity(nglobals);
        for _ in 0..nglobals {
            global_addrs.push(read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?);
        }
        let evt_base = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
        // Blobs written before the OSR section simply end here; treat them
        // as carrying no certificates rather than rejecting them.
        let mut osr = Vec::new();
        if pos != raw.len() {
            let ncerts = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
            for _ in 0..ncerts {
                let func = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
                if func as usize >= module.functions().len() {
                    return Err(MetaError::BadAnnex);
                }
                let func = FuncId(func as u32);
                let header = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
                if header as usize >= module.function(func).blocks().len() {
                    return Err(MetaError::BadAnnex);
                }
                let loop_depth = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)? as u32;
                let nlive = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
                let mut live = Vec::new();
                for _ in 0..nlive {
                    let reg = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
                    if reg as usize >= module.function(func).reg_count() as usize {
                        return Err(MetaError::BadAnnex);
                    }
                    let lo = unzigzag(read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?);
                    let hi = unzigzag(read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?);
                    if lo > hi {
                        return Err(MetaError::BadAnnex);
                    }
                    let class = match read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)? {
                        0 => PtClass::NotAddr,
                        1 => PtClass::Unknown,
                        2 => {
                            let g = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
                            if g as usize >= module.globals().len() {
                                return Err(MetaError::BadAnnex);
                            }
                            PtClass::Global(GlobalId(g as u32))
                        }
                        3 => {
                            let p = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
                            if p >= u64::from(module.function(func).params()) {
                                return Err(MetaError::BadAnnex);
                            }
                            PtClass::Param(p as u32)
                        }
                        _ => return Err(MetaError::BadAnnex),
                    };
                    live.push(OsrLiveSlot {
                        reg: Reg(reg as u32),
                        range: Interval { lo, hi },
                        class,
                    });
                }
                osr.push(OsrCertificate {
                    func,
                    header: BlockId(header as u32),
                    loop_depth,
                    live,
                });
            }
        }
        // Likewise, blobs written before the transfer-recipe section end
        // after the certificates.
        let mut osr_recipes = Vec::new();
        if pos != raw.len() {
            let nrecipes = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
            for _ in 0..nrecipes {
                let func = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
                if func as usize >= module.functions().len() {
                    return Err(MetaError::BadAnnex);
                }
                let func = FuncId(func as u32);
                let f = module.function(func);
                let nblocks = f.blocks().len() as u64;
                let nregs = u64::from(f.reg_count().max(f.params()));
                let baseline_header = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
                let variant_header = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
                if baseline_header >= nblocks || variant_header >= nblocks {
                    return Err(MetaError::BadAnnex);
                }
                let nmoves = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
                let mut moves = Vec::new();
                for _ in 0..nmoves {
                    let dst = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
                    let src = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
                    if dst >= nregs || src >= nregs {
                        return Err(MetaError::BadAnnex);
                    }
                    moves.push((Reg(dst as u32), Reg(src as u32)));
                }
                let nconsts = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
                let mut consts = Vec::new();
                for _ in 0..nconsts {
                    let dst = read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?;
                    if dst >= nregs {
                        return Err(MetaError::BadAnnex);
                    }
                    let value = unzigzag(read_varu(&raw, &mut pos).ok_or(MetaError::BadAnnex)?);
                    consts.push((Reg(dst as u32), value));
                }
                osr_recipes.push(TransferRecipe {
                    func,
                    baseline_header: BlockId(baseline_header as u32),
                    variant_header: BlockId(variant_header as u32),
                    moves,
                    consts,
                });
            }
        }
        if pos != raw.len() {
            return Err(MetaError::BadAnnex);
        }
        Ok(EmbeddedMeta {
            module,
            link: LinkInfo {
                func_addrs,
                func_evt_slot,
                global_addrs,
                evt_base,
            },
            osr,
            osr_recipes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::FunctionBuilder;

    fn sample() -> EmbeddedMeta {
        let mut m = Module::new("s");
        m.add_global("a", 64);
        m.add_global("b", 8);
        let mut f = FunctionBuilder::new("f", 1);
        f.ret(None);
        m.add_function(f.finish());
        let mut g = FunctionBuilder::new("g", 0);
        g.counted_loop(0, 4, 1, |b, i| {
            let _ = b.add_imm(i, 1);
        });
        g.ret(None);
        let gid = m.add_function(g.finish());
        m.set_entry(gid);
        // Exercise every slot-class tag and both interval shapes.
        let osr = vec![
            OsrCertificate {
                func: FuncId(0),
                header: BlockId(0),
                loop_depth: 1,
                live: vec![OsrLiveSlot {
                    reg: Reg(0),
                    range: Interval { lo: -3, hi: 3 },
                    class: PtClass::Param(0),
                }],
            },
            OsrCertificate {
                func: FuncId(1),
                header: BlockId(1),
                loop_depth: 1,
                live: vec![
                    OsrLiveSlot {
                        reg: Reg(0),
                        range: Interval { lo: 0, hi: 4 },
                        class: PtClass::NotAddr,
                    },
                    OsrLiveSlot {
                        reg: Reg(1),
                        range: Interval::TOP,
                        class: PtClass::Global(GlobalId(1)),
                    },
                    OsrLiveSlot {
                        reg: Reg(2),
                        range: Interval {
                            lo: i64::MIN,
                            hi: 0,
                        },
                        class: PtClass::Unknown,
                    },
                ],
            },
        ];
        let osr_recipes = vec![TransferRecipe {
            func: FuncId(1),
            baseline_header: BlockId(1),
            variant_header: BlockId(1),
            moves: vec![(Reg(0), Reg(0)), (Reg(1), Reg(2))],
            consts: vec![(Reg(2), -7)],
        }];
        EmbeddedMeta {
            module: m,
            link: LinkInfo {
                func_addrs: vec![0, 10],
                func_evt_slot: vec![None, Some(0)],
                global_addrs: vec![64, 128],
                evt_base: 192,
            },
            osr,
            osr_recipes,
        }
    }

    #[test]
    fn blob_roundtrip() {
        let meta = sample();
        let blob = meta.to_blob();
        let back = EmbeddedMeta::from_blob(&blob).expect("decode");
        assert_eq!(back, meta);
    }

    #[test]
    fn evt_cell_lookup() {
        let meta = sample();
        assert_eq!(meta.link.evt_cell(pir::FuncId(0)), None);
        assert_eq!(meta.link.evt_cell(pir::FuncId(1)), Some(192));
    }

    #[test]
    fn corrupt_blob_rejected_cleanly() {
        let meta = sample();
        let mut blob = meta.to_blob();
        for i in 0..blob.len() {
            let mut copy = blob.clone();
            copy[i] ^= 0xff;
            let _ = EmbeddedMeta::from_blob(&copy); // must not panic
        }
        blob.truncate(blob.len() / 2);
        assert!(EmbeddedMeta::from_blob(&blob).is_err());
    }

    #[test]
    fn annex_func_count_must_match_module() {
        let mut meta = sample();
        meta.link.func_addrs.push(99);
        meta.link.func_evt_slot.push(None);
        // Manually build a blob with the inconsistent annex. to_blob will
        // happily encode it; decode must reject.
        let blob = meta.to_blob();
        assert_eq!(EmbeddedMeta::from_blob(&blob), Err(MetaError::BadAnnex));
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!MetaError::BadAnnex.to_string().is_empty());
    }

    #[test]
    fn pre_osr_blob_still_decodes() {
        // A blob written by a pcc predating the OSR section ends right
        // after evt_base. Reconstruct that wire format by hand and check
        // it decodes to an empty certificate list.
        let meta = sample();
        let module_bytes = pir::encode::encode_module(&meta.module);
        let mut raw = Vec::new();
        put_varu(&mut raw, module_bytes.len() as u64);
        raw.extend_from_slice(&module_bytes);
        put_varu(&mut raw, meta.link.func_addrs.len() as u64);
        for a in &meta.link.func_addrs {
            put_varu(&mut raw, u64::from(*a));
        }
        for s in &meta.link.func_evt_slot {
            put_varu(&mut raw, s.map_or(0, |slot| u64::from(slot) + 1));
        }
        put_varu(&mut raw, meta.link.global_addrs.len() as u64);
        for a in &meta.link.global_addrs {
            put_varu(&mut raw, *a);
        }
        put_varu(&mut raw, meta.link.evt_base);
        let blob = pir::compress::compress(&raw);
        let back = EmbeddedMeta::from_blob(&blob).expect("old blob decodes");
        assert_eq!(back.module, meta.module);
        assert_eq!(back.link, meta.link);
        assert!(back.osr.is_empty());
        assert!(back.osr_recipes.is_empty());
    }

    #[test]
    fn pre_transfer_blob_still_decodes() {
        // A blob from the certificate era (PR 6) ends right after the
        // certs section, with no recipe section. Reconstruct it by
        // encoding with no recipes and truncating the recipe count.
        let mut meta = sample();
        meta.osr_recipes.clear();
        let blob = meta.to_blob();
        let mut raw = pir::compress::decompress(&blob).expect("own blob");
        assert_eq!(raw.last(), Some(&0), "empty recipe section is one 0 byte");
        raw.pop();
        let back =
            EmbeddedMeta::from_blob(&pir::compress::compress(&raw)).expect("cert-era blob decodes");
        assert_eq!(back.osr, meta.osr);
        assert!(back.osr_recipes.is_empty());
    }

    #[test]
    fn out_of_range_recipe_rejected() {
        for bad in [
            |m: &mut EmbeddedMeta| m.osr_recipes[0].func = FuncId(9),
            |m: &mut EmbeddedMeta| m.osr_recipes[0].baseline_header = BlockId(9),
            |m: &mut EmbeddedMeta| m.osr_recipes[0].variant_header = BlockId(9),
            |m: &mut EmbeddedMeta| m.osr_recipes[0].moves[0].0 = Reg(200),
            |m: &mut EmbeddedMeta| m.osr_recipes[0].moves[0].1 = Reg(200),
            |m: &mut EmbeddedMeta| m.osr_recipes[0].consts[0].0 = Reg(200),
        ] {
            let mut meta = sample();
            bad(&mut meta);
            assert_eq!(
                EmbeddedMeta::from_blob(&meta.to_blob()),
                Err(MetaError::BadAnnex)
            );
        }
    }

    #[test]
    fn out_of_range_certificate_rejected() {
        for bad in [
            |m: &mut EmbeddedMeta| m.osr[0].func = FuncId(9),
            |m: &mut EmbeddedMeta| m.osr[0].header = BlockId(9),
            |m: &mut EmbeddedMeta| m.osr[0].live[0].reg = Reg(200),
            |m: &mut EmbeddedMeta| m.osr[0].live[0].class = PtClass::Global(GlobalId(7)),
            |m: &mut EmbeddedMeta| m.osr[0].live[0].class = PtClass::Param(3),
            |m: &mut EmbeddedMeta| m.osr[0].live[0].range = Interval { lo: 5, hi: -5 },
        ] {
            let mut meta = sample();
            bad(&mut meta);
            assert_eq!(
                EmbeddedMeta::from_blob(&meta.to_blob()),
                Err(MetaError::BadAnnex)
            );
        }
    }

    #[test]
    fn real_certificates_roundtrip() {
        let mut meta = sample();
        meta.osr = pir::absint::certify_module(&meta.module)
            .into_iter()
            .filter_map(|d| d.certificate().cloned())
            .collect();
        assert!(!meta.osr.is_empty(), "counted loop should certify");
        let back = EmbeddedMeta::from_blob(&meta.to_blob()).expect("decode");
        assert_eq!(back, meta);
    }
}
