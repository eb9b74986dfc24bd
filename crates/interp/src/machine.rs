//! The interpreter proper.

use crate::emit::{fill_record, DynOperand};
use crate::error::ExecError;
use crate::hooks::{ExecHook, HookAction, HookCtx};
use crate::memory::{Memory, SymbolInfo, SymbolScope, GLOBAL_BASE};
use crate::rtvalue::RtValue;
use crate::sink::TraceSink;
use autocheck_ir::{
    BinOp, BlockId, Builtin, Callee, CastOp, CmpPred, FuncId, Function, GlobalInit, Inst, InstId,
    InstKind, Module, RegName, SrcLoc, Type, Value,
};
use autocheck_trace::{AnalysisCtx, Name, Record, SymId};

/// Synthetic "code addresses" given to functions so Call records carry a
/// pointer value like real traces do.
const CODE_BASE: u64 = 0x40_0000;

/// Execution limits and failure injection.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Hard cap on dynamic instructions (runaway-loop guard).
    pub max_steps: u64,
    /// Interrupt execution when the dynamic instruction id reaches this
    /// value — the simulated `raise(SIGTERM)`.
    pub fail_after: Option<u64>,
    /// Maximum call depth.
    pub max_call_depth: u32,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            max_steps: 2_000_000_000,
            fail_after: None,
            max_call_depth: 512,
        }
    }
}

/// What a completed (or interrupted) execution produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecOutcome {
    /// Lines printed by the program's `print` builtin, in order.
    pub output: Vec<String>,
    /// Number of dynamic instructions executed.
    pub steps: u64,
    /// `main`'s return value.
    pub ret: Option<RtValue>,
}

/// One call frame.
struct Frame {
    func: FuncId,
    regs: Vec<Option<RtValue>>,
    args: Vec<RtValue>,
    syms: SymbolScope,
    sp_base: u64,
}

/// The interpreter. One `Machine` performs one execution (create a fresh
/// machine to re-run, e.g. for a restart).
pub struct Machine<'m> {
    module: &'m Module,
    mem: Memory,
    global_scope: SymbolScope,
    global_addrs: Vec<u64>,
    func_names: Vec<SymId>,
    block_labels: Vec<Vec<SymId>>,
    param_names: Vec<Vec<SymId>>,
    /// `[func][inst]`: the symbol of each instruction's `RegName::Var`,
    /// interned on first use. Lazily, so that the session's symbols, and
    /// their ids, are exactly those of interning at every use: a function
    /// that never runs interns none of its variable names.
    inst_syms: Vec<Vec<Option<SymId>>>,
    /// Each global's name, interned on first use (as `inst_syms`).
    global_syms: Vec<Option<SymId>>,
    output: Vec<String>,
    dyn_id: u64,
    last_line: Option<(u32, u32)>,
    opts: ExecOptions,
    /// The analysis session this machine emits symbols into.
    ctx: AnalysisCtx,
    /// The one record every traced instruction is filled into and lent to
    /// the sink from, so emission builds no `Record` per instruction.
    rec: Record,
    /// A call's callee and argument operands, reused from call to call.
    call_ops: Vec<DynOperand>,
}

impl<'m> Machine<'m> {
    /// Create a machine in the thread's current symbol space (the global
    /// one unless a session guard is live): lays out and initializes
    /// globals.
    pub fn new(module: &'m Module, opts: ExecOptions) -> Machine<'m> {
        Self::with_ctx(module, opts, AnalysisCtx::current())
    }

    /// Create a machine whose emitted trace records intern their symbols
    /// (function names, labels, variable names) into `ctx`'s space.
    pub fn with_ctx(module: &'m Module, opts: ExecOptions, ctx: AnalysisCtx) -> Machine<'m> {
        // Global layout: sequential, 8-byte aligned.
        let mut offset: u64 = 0;
        let mut global_addrs = Vec::with_capacity(module.globals.len());
        for g in &module.globals {
            let size = (g.ty.byte_size() + 7) & !7;
            global_addrs.push(GLOBAL_BASE + offset);
            offset += size.max(8);
        }
        let mut mem = Memory::new(offset);
        let mut global_scope = SymbolScope::new();
        for (g, addr) in module.globals.iter().zip(&global_addrs) {
            match &g.init {
                GlobalInit::Zero => {}
                GlobalInit::I64(v) => mem.write_i64(*addr, *v).expect("global init"),
                GlobalInit::F64(v) => mem.write_f64(*addr, *v).expect("global init"),
            }
            global_scope.insert(
                &g.name,
                SymbolInfo {
                    addr: *addr,
                    ty: g.ty.clone(),
                    decl_line: g.loc.line,
                },
            );
        }
        let func_names = module
            .functions
            .iter()
            .map(|f| ctx.intern(&f.name))
            .collect();
        let block_labels = module
            .functions
            .iter()
            .map(|f| {
                f.blocks
                    .iter()
                    .map(|b| ctx.intern(&b.label.to_string()))
                    .collect()
            })
            .collect();
        let param_names = module
            .functions
            .iter()
            .map(|f| f.params.iter().map(|p| ctx.intern(&p.name)).collect())
            .collect();
        Machine {
            module,
            mem,
            global_scope,
            global_addrs,
            func_names,
            block_labels,
            param_names,
            inst_syms: module
                .functions
                .iter()
                .map(|f| vec![None; f.insts.len()])
                .collect(),
            global_syms: vec![None; module.globals.len()],
            output: Vec::new(),
            dyn_id: 0,
            last_line: None,
            opts,
            ctx,
            rec: Record::blank(),
            call_ops: Vec::new(),
        }
    }

    /// The memory (for whole-image checkpoint tooling).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The global symbol scope.
    pub fn globals(&self) -> &SymbolScope {
        &self.global_scope
    }

    /// Dynamic instruction count so far.
    pub fn dyn_id(&self) -> u64 {
        self.dyn_id
    }

    /// Run `main` to completion (or interruption).
    pub fn run(
        &mut self,
        sink: &mut dyn TraceSink,
        hook: &mut dyn ExecHook,
    ) -> Result<ExecOutcome, ExecError> {
        let main = self
            .module
            .function_by_name("main")
            .ok_or(ExecError::NoMain)?;
        let ret = self.call_function(main, Vec::new(), sink, hook, 0)?;
        Ok(ExecOutcome {
            output: std::mem::take(&mut self.output),
            steps: self.dyn_id,
            ret,
        })
    }

    fn code_addr(fid: FuncId) -> u64 {
        CODE_BASE + 0x10 * fid.0 as u64
    }

    fn eval(&self, frame: &Frame, v: Value) -> Result<RtValue, ExecError> {
        match v {
            Value::Inst(id) => frame.regs[id.index()].ok_or_else(|| ExecError::UnboundRegister {
                function: self.module.function(frame.func).name.clone(),
                inst: id.0,
            }),
            Value::Param(i) => Ok(frame.args[i as usize]),
            Value::Global(g) => Ok(RtValue::P(self.global_addrs[g.index()])),
            Value::ConstI(v) => Ok(RtValue::I(v)),
            Value::ConstF(v) => Ok(RtValue::F(v)),
            Value::ConstBool(b) => Ok(RtValue::B(b)),
        }
    }

    /// The trace name of the register instruction `id` of `func` defines.
    fn reg_name(&mut self, func: FuncId, id: InstId) -> Name {
        let module = self.module;
        match &module.function(func).inst(id).name {
            RegName::Temp(n) => Name::Temp(*n),
            RegName::Var(s) => {
                let ctx = &self.ctx;
                let slot = &mut self.inst_syms[func.index()][id.index()];
                Name::Sym(*slot.get_or_insert_with(|| ctx.intern(s)))
            }
            RegName::None => Name::None,
        }
    }

    /// The trace name and register-ness of an operand.
    fn operand_name(&mut self, frame: &Frame, v: Value) -> (Name, bool) {
        match v {
            Value::Inst(id) => (self.reg_name(frame.func, id), true),
            Value::Param(i) => (
                Name::Sym(self.param_names[frame.func.index()][i as usize]),
                true,
            ),
            Value::Global(g) => {
                let (ctx, module) = (&self.ctx, self.module);
                let slot = &mut self.global_syms[g.index()];
                let sym = *slot.get_or_insert_with(|| ctx.intern(&module.global(g).name));
                (Name::Sym(sym), true)
            }
            _ => (Name::None, false),
        }
    }

    fn dyn_operand(&mut self, frame: &Frame, v: Value) -> Result<DynOperand, ExecError> {
        let value = self.eval(frame, v)?;
        let (name, is_reg) = self.operand_name(frame, v);
        Ok(DynOperand {
            name,
            value,
            is_reg,
        })
    }

    /// Fill the record slot with `inst` and lend it to `sink`. `call` names
    /// the callee and argument values of Call form 2, whose parameters
    /// become the `f` lines.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        sink: &mut dyn TraceSink,
        frame: &Frame,
        block: BlockId,
        inst: &Inst,
        operands: &[DynOperand],
        call: Option<(FuncId, &[RtValue])>,
        result: Option<DynOperand>,
        label_override: Option<SymId>,
    ) -> Result<(), ExecError> {
        let f = self.module.function(frame.func);
        let label =
            label_override.unwrap_or_else(|| self.block_labels[frame.func.index()][block.index()]);
        let (params, args): (&[SymId], &[RtValue]) = match call {
            Some((callee, args)) => (&self.param_names[callee.index()], args),
            None => (&[], &[]),
        };
        fill_record(
            &mut self.rec,
            self.func_names[frame.func.index()],
            f.blocks[block.index()].loc,
            label,
            inst.opcode().0,
            inst.loc,
            self.dyn_id,
            operands,
            params,
            args,
            result,
        );
        sink.record(&self.rec)
    }

    fn check_budget(&self) -> Result<(), ExecError> {
        if self.dyn_id >= self.opts.max_steps {
            return Err(ExecError::StepLimit {
                limit: self.opts.max_steps,
            });
        }
        if let Some(f) = self.opts.fail_after {
            if self.dyn_id >= f {
                return Err(ExecError::Interrupted {
                    dyn_id: self.dyn_id,
                });
            }
        }
        Ok(())
    }

    fn call_function(
        &mut self,
        fid: FuncId,
        args: Vec<RtValue>,
        sink: &mut dyn TraceSink,
        hook: &mut dyn ExecHook,
        depth: u32,
    ) -> Result<Option<RtValue>, ExecError> {
        if depth > self.opts.max_call_depth {
            return Err(ExecError::StackOverflow);
        }
        let func: &Function = self.module.function(fid);
        let mut frame = Frame {
            func: fid,
            regs: vec![None; func.insts.len()],
            args,
            syms: SymbolScope::new(),
            sp_base: self.mem.stack_pointer(),
        };
        let mut block = func.entry();
        let mut idx = 0usize;
        loop {
            let inst_id = match func.blocks[block.index()].insts.get(idx) {
                Some(id) => *id,
                None => {
                    // Verified functions always end blocks with terminators;
                    // falling off means an unverified module. Treat as a
                    // void return for robustness.
                    self.mem.stack_release(frame.sp_base);
                    return Ok(None);
                }
            };
            let inst = func.inst(inst_id);

            // Line-transition hook.
            if inst.loc.line != 0 {
                let key = (fid.0, inst.loc.line);
                if self.last_line != Some(key) {
                    self.last_line = Some(key);
                    let mut ctx = HookCtx {
                        mem: &mut self.mem,
                        frame: &frame.syms,
                        globals: &self.global_scope,
                        dyn_id: self.dyn_id,
                    };
                    if hook.on_line(&mut ctx, &func.name, inst.loc.line) == HookAction::Interrupt {
                        return Err(ExecError::Interrupted {
                            dyn_id: self.dyn_id,
                        });
                    }
                }
            }
            self.check_budget()?;

            let trace_on = sink.enabled();
            match &inst.kind {
                InstKind::Alloca { ty, var } => {
                    let addr = self.mem.stack_alloc(ty.byte_size());
                    frame.syms.insert(
                        var,
                        SymbolInfo {
                            addr,
                            ty: ty.clone(),
                            decl_line: inst.loc.line,
                        },
                    );
                    frame.regs[inst_id.index()] = Some(RtValue::P(addr));
                    if trace_on {
                        let ops = [DynOperand::imm(RtValue::I(ty.byte_size() as i64))];
                        let sym = self.ctx.intern(var);
                        let res = DynOperand::reg(Name::Sym(sym), RtValue::P(addr));
                        self.emit(sink, &frame, block, inst, &ops, None, Some(res), Some(sym))?;
                    }
                }
                InstKind::Load { ptr, ty } => {
                    let pv = self.dyn_operand(&frame, *ptr)?;
                    let addr = pv.value.as_p().ok_or(ExecError::OutOfBounds { addr: 0 })?;
                    let loaded = match ty {
                        Type::F64 => RtValue::F(self.mem.read_f64(addr)?),
                        _ => RtValue::I(self.mem.read_i64(addr)?),
                    };
                    frame.regs[inst_id.index()] = Some(loaded);
                    if trace_on {
                        let res = DynOperand {
                            name: self.reg_name(fid, inst_id),
                            value: loaded,
                            is_reg: true,
                        };
                        self.emit(sink, &frame, block, inst, &[pv], None, Some(res), None)?;
                    }
                }
                InstKind::Store { value, ptr, ty } => {
                    let vv = self.dyn_operand(&frame, *value)?;
                    let pv = self.dyn_operand(&frame, *ptr)?;
                    let addr = pv.value.as_p().ok_or(ExecError::OutOfBounds { addr: 0 })?;
                    match ty {
                        Type::F64 => self.mem.write_f64(
                            addr,
                            vv.value.as_f().unwrap_or_else(|| {
                                vv.value.as_i().map(|i| i as f64).unwrap_or(0.0)
                            }),
                        )?,
                        _ => self
                            .mem
                            .write_i64(addr, vv.value.as_i().unwrap_or_default())?,
                    }
                    if trace_on {
                        self.emit(sink, &frame, block, inst, &[vv, pv], None, None, None)?;
                    }
                }
                InstKind::Gep { base, index, elem } => {
                    let bv = self.dyn_operand(&frame, *base)?;
                    let iv = self.dyn_operand(&frame, *index)?;
                    let baddr = bv.value.as_p().ok_or(ExecError::OutOfBounds { addr: 0 })?;
                    let i = iv.value.as_i().unwrap_or(0);
                    let addr = (baddr as i64 + i * elem.byte_size() as i64) as u64;
                    let res_v = RtValue::P(addr);
                    frame.regs[inst_id.index()] = Some(res_v);
                    if trace_on {
                        let res = DynOperand {
                            name: self.reg_name(fid, inst_id),
                            value: res_v,
                            is_reg: true,
                        };
                        self.emit(sink, &frame, block, inst, &[bv, iv], None, Some(res), None)?;
                    }
                }
                InstKind::BitCast { value, .. } => {
                    let vv = self.dyn_operand(&frame, *value)?;
                    frame.regs[inst_id.index()] = Some(vv.value);
                    if trace_on {
                        let res = DynOperand {
                            name: self.reg_name(fid, inst_id),
                            value: vv.value,
                            is_reg: true,
                        };
                        self.emit(sink, &frame, block, inst, &[vv], None, Some(res), None)?;
                    }
                }
                InstKind::Binary { op, lhs, rhs } => {
                    let lv = self.dyn_operand(&frame, *lhs)?;
                    let rv = self.dyn_operand(&frame, *rhs)?;
                    let out = eval_binary(*op, lv.value, rv.value, inst.loc)?;
                    frame.regs[inst_id.index()] = Some(out);
                    if trace_on {
                        let res = DynOperand {
                            name: self.reg_name(fid, inst_id),
                            value: out,
                            is_reg: true,
                        };
                        self.emit(sink, &frame, block, inst, &[lv, rv], None, Some(res), None)?;
                    }
                }
                InstKind::Cmp {
                    pred,
                    lhs,
                    rhs,
                    float,
                } => {
                    let lv = self.dyn_operand(&frame, *lhs)?;
                    let rv = self.dyn_operand(&frame, *rhs)?;
                    let out = RtValue::B(eval_cmp(*pred, *float, lv.value, rv.value));
                    frame.regs[inst_id.index()] = Some(out);
                    if trace_on {
                        let res = DynOperand {
                            name: self.reg_name(fid, inst_id),
                            value: out,
                            is_reg: true,
                        };
                        self.emit(sink, &frame, block, inst, &[lv, rv], None, Some(res), None)?;
                    }
                }
                InstKind::Cast { op, value } => {
                    let vv = self.dyn_operand(&frame, *value)?;
                    let out = match op {
                        CastOp::SiToFp => RtValue::F(vv.value.as_i().unwrap_or(0) as f64),
                        CastOp::FpToSi => RtValue::I(vv.value.as_f().unwrap_or(0.0) as i64),
                        CastOp::ZExt => RtValue::I(vv.value.as_i().unwrap_or(0)),
                    };
                    frame.regs[inst_id.index()] = Some(out);
                    if trace_on {
                        let res = DynOperand {
                            name: self.reg_name(fid, inst_id),
                            value: out,
                            is_reg: true,
                        };
                        self.emit(sink, &frame, block, inst, &[vv], None, Some(res), None)?;
                    }
                }
                InstKind::Call { callee, args } => {
                    // Taken out of the machine while it is filled and lent;
                    // an error on the way only costs a fresh buffer later.
                    let mut arg_ops = std::mem::take(&mut self.call_ops);
                    arg_ops.clear();
                    match callee {
                        Callee::Builtin(b) => {
                            // Call form 1: one record including the result.
                            arg_ops.push(DynOperand::reg(
                                Name::Sym(self.ctx.intern(b.name())),
                                RtValue::P(CODE_BASE - 0x1000 + *b as u64 * 0x10),
                            ));
                            for a in args {
                                arg_ops.push(self.dyn_operand(&frame, *a)?);
                            }
                            let out = self.eval_builtin(*b, &arg_ops[1..]);
                            if let Some(v) = out {
                                frame.regs[inst_id.index()] = Some(v);
                            }
                            if trace_on {
                                let res = out.map(|v| DynOperand {
                                    name: self.reg_name(fid, inst_id),
                                    value: v,
                                    is_reg: true,
                                });
                                self.emit(sink, &frame, block, inst, &arg_ops, None, res, None)?;
                            }
                            self.call_ops = arg_ops;
                            self.dyn_id += 1;
                            idx += 1;
                            continue;
                        }
                        Callee::Function(callee_id) => {
                            // Call form 2: record with args + `f` param
                            // lines, then the callee body.
                            arg_ops.push(DynOperand::reg(
                                Name::Sym(self.func_names[callee_id.index()]),
                                RtValue::P(Self::code_addr(*callee_id)),
                            ));
                            let mut vals = Vec::with_capacity(args.len());
                            for a in args {
                                let op = self.dyn_operand(&frame, *a)?;
                                vals.push(op.value);
                                arg_ops.push(op);
                            }
                            if trace_on {
                                // Unlike paper Fig. 6(b) we add a result line
                                // carrying only the call's register *name*
                                // (placeholder value): it lets the analysis
                                // link the callee's `Ret` operand to the
                                // caller's uses of the returned value.
                                let res = if self.module.function(*callee_id).ret != Type::Void {
                                    Some(DynOperand {
                                        name: self.reg_name(fid, inst_id),
                                        value: RtValue::I(0),
                                        is_reg: true,
                                    })
                                } else {
                                    None
                                };
                                let call = Some((*callee_id, &vals[..]));
                                self.emit(sink, &frame, block, inst, &arg_ops, call, res, None)?;
                            }
                            self.call_ops = arg_ops;
                            self.dyn_id += 1;
                            let ret =
                                self.call_function(*callee_id, vals, sink, hook, depth + 1)?;
                            if let Some(v) = ret {
                                frame.regs[inst_id.index()] = Some(v);
                            }
                            idx += 1;
                            continue;
                        }
                    }
                }
                InstKind::Ret { value } => {
                    let op = match value {
                        Some(v) => Some(self.dyn_operand(&frame, *v)?),
                        None => None,
                    };
                    if trace_on {
                        self.emit(sink, &frame, block, inst, op.as_slice(), None, None, None)?;
                    }
                    let ret_v = op.map(|op| op.value);
                    self.dyn_id += 1;
                    self.mem.stack_release(frame.sp_base);
                    return Ok(ret_v);
                }
                InstKind::Br { target } => {
                    if trace_on {
                        self.emit(sink, &frame, block, inst, &[], None, None, None)?;
                    }
                    self.dyn_id += 1;
                    block = *target;
                    idx = 0;
                    continue;
                }
                InstKind::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let cv = self.dyn_operand(&frame, *cond)?;
                    let taken = cv.value.as_b().unwrap_or(false);
                    if trace_on {
                        self.emit(sink, &frame, block, inst, &[cv], None, None, None)?;
                    }
                    self.dyn_id += 1;
                    block = if taken { *then_bb } else { *else_bb };
                    idx = 0;
                    continue;
                }
            }
            self.dyn_id += 1;
            idx += 1;
        }
    }

    fn eval_builtin(&mut self, b: Builtin, args: &[DynOperand]) -> Option<RtValue> {
        let f = |i: usize| args.get(i).and_then(|v| v.value.as_f()).unwrap_or(0.0);
        Some(match b {
            Builtin::Print => {
                let line = args
                    .first()
                    .map(|v| v.value.display_exact())
                    .unwrap_or_default();
                self.output.push(line);
                return None;
            }
            Builtin::Sqrt => RtValue::F(f(0).sqrt()),
            Builtin::Pow => RtValue::F(f(0).powf(f(1))),
            Builtin::FAbs => RtValue::F(f(0).abs()),
            Builtin::IAbs => {
                RtValue::I(args.first().and_then(|v| v.value.as_i()).unwrap_or(0).abs())
            }
            Builtin::Exp => RtValue::F(f(0).exp()),
            Builtin::Log => RtValue::F(f(0).ln()),
            Builtin::Cos => RtValue::F(f(0).cos()),
            Builtin::Sin => RtValue::F(f(0).sin()),
            Builtin::Floor => RtValue::F(f(0).floor()),
            Builtin::FMax => RtValue::F(f(0).max(f(1))),
            Builtin::FMin => RtValue::F(f(0).min(f(1))),
        })
    }
}

fn eval_binary(op: BinOp, l: RtValue, r: RtValue, loc: SrcLoc) -> Result<RtValue, ExecError> {
    if op.is_float() {
        let (a, b) = (l.as_f().unwrap_or(0.0), r.as_f().unwrap_or(0.0));
        return Ok(RtValue::F(match op {
            BinOp::FAdd => a + b,
            BinOp::FSub => a - b,
            BinOp::FMul => a * b,
            BinOp::FDiv => {
                if b == 0.0 {
                    return Err(ExecError::DivByZero { line: loc.line });
                }
                a / b
            }
            _ => unreachable!(),
        }));
    }
    let (a, b) = (l.as_i().unwrap_or(0), r.as_i().unwrap_or(0));
    Ok(RtValue::I(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::SDiv => {
            if b == 0 {
                return Err(ExecError::DivByZero { line: loc.line });
            }
            a.wrapping_div(b)
        }
        BinOp::UDiv => {
            if b == 0 {
                return Err(ExecError::DivByZero { line: loc.line });
            }
            ((a as u64) / (b as u64)) as i64
        }
        BinOp::SRem => {
            if b == 0 {
                return Err(ExecError::DivByZero { line: loc.line });
            }
            a.wrapping_rem(b)
        }
        BinOp::URem => {
            if b == 0 {
                return Err(ExecError::DivByZero { line: loc.line });
            }
            ((a as u64) % (b as u64)) as i64
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::LShr => ((a as u64).wrapping_shr(b as u32)) as i64,
        BinOp::AShr => a.wrapping_shr(b as u32),
        _ => unreachable!(),
    }))
}

fn eval_cmp(pred: CmpPred, float: bool, l: RtValue, r: RtValue) -> bool {
    if float {
        let (a, b) = (l.as_f().unwrap_or(0.0), r.as_f().unwrap_or(0.0));
        match pred {
            CmpPred::Eq => a == b,
            CmpPred::Ne => a != b,
            CmpPred::Lt => a < b,
            CmpPred::Le => a <= b,
            CmpPred::Gt => a > b,
            CmpPred::Ge => a >= b,
        }
    } else {
        let (a, b) = (l.as_i().unwrap_or(0), r.as_i().unwrap_or(0));
        match pred {
            CmpPred::Eq => a == b,
            CmpPred::Ne => a != b,
            CmpPred::Lt => a < b,
            CmpPred::Le => a <= b,
            CmpPred::Gt => a > b,
            CmpPred::Ge => a >= b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{FnHook, NoHook};
    use crate::sink::{NullSink, VecSink};
    use autocheck_ir::{FunctionBuilder, Param};

    /// int main() { int x; x = 6; x = x * 7; print(x); return x; }
    fn mul_module() -> Module {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new(autocheck_ir::Function::new(
            "main",
            vec![],
            Type::I64,
            SrcLoc::new(1, 1),
        ));
        b.set_loc(2, 3);
        let x = b.alloca("x", Type::I64);
        b.store(Value::ConstI(6), x, Type::I64);
        b.set_loc(3, 3);
        let v = b.load(x, Type::I64);
        let w = b.binary(BinOp::Mul, v, Value::ConstI(7));
        b.store(w, x, Type::I64);
        b.set_loc(4, 3);
        let v2 = b.load(x, Type::I64);
        b.call_builtin(Builtin::Print, vec![v2]);
        b.set_loc(5, 3);
        let v3 = b.load(x, Type::I64);
        b.ret(Some(v3));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn executes_and_prints() {
        let m = mul_module();
        let mut machine = Machine::new(&m, ExecOptions::default());
        let out = machine.run(&mut NullSink, &mut NoHook).unwrap();
        assert_eq!(out.output, vec!["42".to_string()]);
        assert_eq!(out.ret, Some(RtValue::I(42)));
        assert!(out.steps > 0);
    }

    #[test]
    fn emits_parsable_trace_with_sequential_dyn_ids() {
        let m = mul_module();
        let mut machine = Machine::new(&m, ExecOptions::default());
        let mut sink = VecSink::default();
        machine.run(&mut sink, &mut NoHook).unwrap();
        assert!(!sink.records.is_empty());
        for (i, r) in sink.records.iter().enumerate() {
            assert_eq!(r.dyn_id, i as u64, "dyn ids must be dense and ordered");
        }
        // The store of 6 into x names `x` on the pointer operand.
        let store = sink
            .records
            .iter()
            .find(|r| r.opcode == 28)
            .expect("store record");
        assert_eq!(store.op2().unwrap().name, Name::sym("x"));
        // Load produces a temp-named result.
        let load = sink
            .records
            .iter()
            .find(|r| r.opcode == 27)
            .expect("load record");
        assert!(matches!(load.result.as_ref().unwrap().name, Name::Temp(_)));
    }

    #[test]
    fn trace_is_deterministic_across_runs() {
        let m = mul_module();
        let run = || {
            let mut machine = Machine::new(&m, ExecOptions::default());
            let mut sink = VecSink::default();
            machine.run(&mut sink, &mut NoHook).unwrap();
            sink.records
        };
        assert_eq!(run(), run());
    }

    /// foo(p, q) { q[0] = p[0] * 2; } exercises arrays + call form 2.
    fn call_module() -> Module {
        let mut m = Module::new();
        let mut foo = FunctionBuilder::new(autocheck_ir::Function::new(
            "foo",
            vec![
                Param {
                    name: "p".into(),
                    ty: Type::I64.ptr_to(),
                },
                Param {
                    name: "q".into(),
                    ty: Type::I64.ptr_to(),
                },
            ],
            Type::Void,
            SrcLoc::new(1, 1),
        ));
        foo.set_loc(2, 3);
        let pe = foo.gep(Value::Param(0), Value::ConstI(0), Type::I64);
        let pv = foo.load(pe, Type::I64);
        let dbl = foo.binary(BinOp::Mul, pv, Value::ConstI(2));
        let qe = foo.gep(Value::Param(1), Value::ConstI(0), Type::I64);
        foo.store(dbl, qe, Type::I64);
        foo.ret(None);
        let foo_id = m.add_function(foo.finish());

        let mut main = FunctionBuilder::new(autocheck_ir::Function::new(
            "main",
            vec![],
            Type::I64,
            SrcLoc::new(5, 1),
        ));
        main.set_loc(6, 3);
        let a = main.alloca("a", Type::Array(Box::new(Type::I64), 4));
        let bvar = main.alloca("b", Type::Array(Box::new(Type::I64), 4));
        let a0 = main.gep(a, Value::ConstI(0), Type::I64);
        main.store(Value::ConstI(21), a0, Type::I64);
        main.set_loc(7, 3);
        main.call(foo_id, vec![a, bvar]);
        main.set_loc(8, 3);
        let b0 = main.gep(bvar, Value::ConstI(0), Type::I64);
        let bv = main.load(b0, Type::I64);
        main.call_builtin(Builtin::Print, vec![bv]);
        main.ret(Some(Value::ConstI(0)));
        m.add_function(main.finish());
        m
    }

    #[test]
    fn function_calls_pass_pointers() {
        let m = call_module();
        let mut machine = Machine::new(&m, ExecOptions::default());
        let out = machine.run(&mut NullSink, &mut NoHook).unwrap();
        assert_eq!(out.output, vec!["42".to_string()]);
    }

    #[test]
    fn call_form2_trace_has_param_lines_and_callee_body() {
        let m = call_module();
        let mut machine = Machine::new(&m, ExecOptions::default());
        let mut sink = VecSink::default();
        machine.run(&mut sink, &mut NoHook).unwrap();
        let call = sink
            .records
            .iter()
            .find(|r| r.opcode == 49 && r.params().count() > 0)
            .expect("form-2 call record");
        let params: Vec<_> = call.params().collect();
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].name, Name::sym("p"));
        assert_eq!(params[1].name, Name::sym("q"));
        // Argument operand values equal parameter values (the triplet the
        // analysis appends to the reg-var map).
        assert_eq!(call.positional().nth(1).unwrap().value, params[0].value);
        // Callee body records appear after the call, attributed to `foo`.
        let call_pos = sink
            .records
            .iter()
            .position(|r| r.dyn_id == call.dyn_id)
            .unwrap();
        assert!(sink.records[call_pos + 1..].iter().any(|r| r.func == "foo"));
        // And the callee's Ret record closes the invocation.
        assert!(sink.records[call_pos + 1..]
            .iter()
            .any(|r| r.opcode == 1 && r.func == "foo"));
    }

    #[test]
    fn failure_injection_interrupts() {
        let m = mul_module();
        let mut machine = Machine::new(
            &m,
            ExecOptions {
                fail_after: Some(4),
                ..ExecOptions::default()
            },
        );
        let err = machine.run(&mut NullSink, &mut NoHook).unwrap_err();
        assert_eq!(err, ExecError::Interrupted { dyn_id: 4 });
    }

    #[test]
    fn step_limit_guards_runaway_loops() {
        // while (1) {}
        let mut m = Module::new();
        let mut b = FunctionBuilder::new(autocheck_ir::Function::new(
            "main",
            vec![],
            Type::Void,
            SrcLoc::new(1, 1),
        ));
        let header = b.new_block();
        b.br(header);
        b.switch_to(header);
        b.set_loc(2, 1);
        b.br(header);
        m.add_function(b.finish());
        let mut machine = Machine::new(
            &m,
            ExecOptions {
                max_steps: 1000,
                ..ExecOptions::default()
            },
        );
        let err = machine.run(&mut NullSink, &mut NoHook).unwrap_err();
        assert_eq!(err, ExecError::StepLimit { limit: 1000 });
    }

    #[test]
    fn hook_sees_lines_and_can_mutate_memory() {
        let m = mul_module();
        let mut machine = Machine::new(&m, ExecOptions::default());
        let mut seen = Vec::new();
        let mut hook = FnHook(|ctx: &mut HookCtx<'_>, func: &str, line: u32| {
            seen.push((func.to_string(), line));
            if line == 4 {
                // Overwrite x right before it is printed.
                ctx.write_var("x", &(100i64).to_le_bytes());
            }
            HookAction::Continue
        });
        let out = machine.run(&mut NullSink, &mut hook).unwrap();
        assert_eq!(out.output, vec!["100".to_string()]);
        assert!(seen.contains(&("main".to_string(), 2)));
        assert!(seen.contains(&("main".to_string(), 4)));
    }

    #[test]
    fn hook_interrupt_stops_execution() {
        let m = mul_module();
        let mut machine = Machine::new(&m, ExecOptions::default());
        let mut hook = FnHook(|_ctx: &mut HookCtx<'_>, _f: &str, line: u32| {
            if line >= 4 {
                HookAction::Interrupt
            } else {
                HookAction::Continue
            }
        });
        let err = machine.run(&mut NullSink, &mut hook).unwrap_err();
        assert!(matches!(err, ExecError::Interrupted { .. }));
    }

    #[test]
    fn division_by_zero_reports_line() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new(autocheck_ir::Function::new(
            "main",
            vec![],
            Type::I64,
            SrcLoc::new(1, 1),
        ));
        b.set_loc(9, 1);
        let d = b.binary(BinOp::SDiv, Value::ConstI(1), Value::ConstI(0));
        b.ret(Some(d));
        m.add_function(b.finish());
        let mut machine = Machine::new(&m, ExecOptions::default());
        let err = machine.run(&mut NullSink, &mut NoHook).unwrap_err();
        assert_eq!(err, ExecError::DivByZero { line: 9 });
    }

    #[test]
    fn globals_are_initialized_and_addressable() {
        let mut m = Module::new();
        m.add_global(autocheck_ir::Global {
            name: "seed".into(),
            ty: Type::I64,
            init: GlobalInit::I64(7),
            loc: SrcLoc::new(1, 1),
        });
        let g = m.global_by_name("seed").unwrap();
        let mut b = FunctionBuilder::new(autocheck_ir::Function::new(
            "main",
            vec![],
            Type::I64,
            SrcLoc::new(2, 1),
        ));
        b.set_loc(3, 1);
        let v = b.load(Value::Global(g), Type::I64);
        let w = b.binary(BinOp::Add, v, Value::ConstI(1));
        b.store(w, Value::Global(g), Type::I64);
        let v2 = b.load(Value::Global(g), Type::I64);
        b.call_builtin(Builtin::Print, vec![v2]);
        b.ret(Some(Value::ConstI(0)));
        m.add_function(b.finish());
        let mut machine = Machine::new(&m, ExecOptions::default());
        let mut sink = VecSink::default();
        let out = machine.run(&mut sink, &mut NoHook).unwrap();
        assert_eq!(out.output, vec!["8".to_string()]);
        // Global loads carry the global's name on the pointer operand.
        let load = sink.records.iter().find(|r| r.opcode == 27).unwrap();
        assert_eq!(load.op1().unwrap().name, Name::sym("seed"));
    }

    #[test]
    fn variable_names_intern_on_first_use_only() {
        // `ghost` lives in a function that never runs and `unread` is a
        // global nothing reads: neither may reach the session, while the
        // names the run uses must (the session's symbol set is part of
        // what `mlc trace --stream` reports).
        let mut m = mul_module();
        m.add_global(autocheck_ir::Global {
            name: "unread".into(),
            ty: Type::I64,
            init: GlobalInit::Zero,
            loc: SrcLoc::new(1, 1),
        });
        let mut idle = FunctionBuilder::new(autocheck_ir::Function::new(
            "idle",
            vec![],
            Type::Void,
            SrcLoc::new(9, 1),
        ));
        idle.alloca("ghost", Type::I64);
        idle.ret(None);
        m.add_function(idle.finish());
        let ctx = AnalysisCtx::session();
        let mut machine = Machine::with_ctx(&m, ExecOptions::default(), ctx.clone());
        machine.run(&mut VecSink::default(), &mut NoHook).unwrap();
        let present = |s: &str| {
            let before = ctx.space().len();
            ctx.intern(s);
            ctx.space().len() == before
        };
        assert!(present("x") && present("print") && present("idle"));
        assert!(!present("ghost"));
        assert!(!present("unread"));
    }

    #[test]
    fn missing_main_is_an_error() {
        let m = Module::new();
        let mut machine = Machine::new(&m, ExecOptions::default());
        assert_eq!(
            machine.run(&mut NullSink, &mut NoHook).unwrap_err(),
            ExecError::NoMain
        );
    }
}
