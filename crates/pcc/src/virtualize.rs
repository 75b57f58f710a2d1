//! Edge-selection policies for call virtualization.
//!
//! Section III-A1: "Selecting too many edges or edges that are executed
//! too frequently may result in unwanted overheads ... selecting only
//! edges that are rarely executed risks introducing large gaps in
//! execution during which new code variants are not executed. ... Our
//! current approach is to virtualize only function calls, and only those
//! where the callee function has more than one basic block."
//!
//! The EVT carries one slot per *callee function*: redirecting a function
//! redirects every virtualized call edge into it (Figure 1's EVT holds
//! `&func2 .. &func5`).

use pir::{FuncId, Module};

/// Which call edges to virtualize.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum EdgePolicy {
    /// Virtualize no edges (produces a protean binary whose code cannot be
    /// redirected — useful as an overhead-ablation baseline).
    Never,
    /// Virtualize every call.
    AllCalls,
    /// The paper's policy: virtualize calls whose callee has more than one
    /// basic block.
    #[default]
    MultiBlockCallees,
}

impl EdgePolicy {
    /// Decides whether calls to `callee` should be virtualized.
    pub fn virtualizes(self, module: &Module, callee: FuncId) -> bool {
        match self {
            EdgePolicy::Never => false,
            EdgePolicy::AllCalls => true,
            EdgePolicy::MultiBlockCallees => module.function(callee).block_count() > 1,
        }
    }

    /// Assigns EVT slots: one per function whose incoming calls are
    /// virtualized under this policy. Returns `slot_of[func] = Some(slot)`.
    pub fn assign_slots(self, module: &Module) -> Vec<Option<u32>> {
        let mut called = vec![false; module.functions().len()];
        for func in module.functions() {
            for block in func.blocks() {
                for inst in &block.insts {
                    if let pir::Inst::Call { callee, .. } = inst {
                        called[callee.index()] = true;
                    }
                }
            }
        }
        let mut slots = vec![None; module.functions().len()];
        let mut next = 0u32;
        for (i, was_called) in called.iter().enumerate() {
            if *was_called && self.virtualizes(module, FuncId(i as u32)) {
                slots[i] = Some(next);
                next += 1;
            }
        }
        slots
    }

    /// Number of slots this policy would assign.
    pub fn slot_count(self, module: &Module) -> u32 {
        self.assign_slots(module).iter().flatten().count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::FunctionBuilder;

    /// Module with: `leaf` (1 block), `looper` (4 blocks), `main` calling
    /// both.
    fn module() -> Module {
        let mut m = Module::new("t");
        let mut leaf = FunctionBuilder::new("leaf", 0);
        leaf.ret(None);
        let leaf_id = m.add_function(leaf.finish());
        let mut looper = FunctionBuilder::new("looper", 0);
        looper.counted_loop(0, 4, 1, |b, i| {
            let _ = b.add_imm(i, 1);
        });
        looper.ret(None);
        let looper_id = m.add_function(looper.finish());
        let mut main = FunctionBuilder::new("main", 0);
        main.call_void(leaf_id, &[]);
        main.call_void(looper_id, &[]);
        main.ret(None);
        let main_id = m.add_function(main.finish());
        m.set_entry(main_id);
        m
    }

    #[test]
    fn default_policy_skips_single_block_callees() {
        let m = module();
        let policy = EdgePolicy::MultiBlockCallees;
        assert!(!policy.virtualizes(&m, FuncId(0)), "leaf has one block");
        assert!(
            policy.virtualizes(&m, FuncId(1)),
            "looper has several blocks"
        );
        let slots = policy.assign_slots(&m);
        assert_eq!(slots[0], None);
        assert_eq!(slots[1], Some(0));
        assert_eq!(slots[2], None, "main is never called");
        assert_eq!(policy.slot_count(&m), 1);
    }

    #[test]
    fn all_calls_policy_virtualizes_called_functions_only() {
        let m = module();
        let slots = EdgePolicy::AllCalls.assign_slots(&m);
        assert!(slots[0].is_some());
        assert!(slots[1].is_some());
        assert_eq!(
            slots[2], None,
            "main is never called, no edge to virtualize"
        );
        assert_eq!(EdgePolicy::AllCalls.slot_count(&m), 2);
    }

    #[test]
    fn never_policy_assigns_nothing() {
        let m = module();
        assert_eq!(EdgePolicy::Never.slot_count(&m), 0);
        assert!(EdgePolicy::Never
            .assign_slots(&m)
            .iter()
            .all(Option::is_none));
    }

    #[test]
    fn slots_are_dense() {
        let m = module();
        let slots = EdgePolicy::AllCalls.assign_slots(&m);
        let mut seen: Vec<u32> = slots.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
    }
}
