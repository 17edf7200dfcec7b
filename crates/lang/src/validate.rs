//! Semantic analysis: AST → resolved [`Problem`].
//!
//! Checks performed:
//!
//! * duplicate variable names and duplicate flow names;
//! * unresolvable symbolic endpoint names;
//! * attribute references to unknown flows;
//! * `size` reference cycles (rate cycles are *allowed* — they express
//!   coupled rates, as in the paper's daisy-chain example);
//! * degenerate flows (`disk -> disk`, variable used as its own pool value).

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::ast::{AttrKind, EndpointAst, Expr, FlowRef, Query, RefAttr};
use crate::error::{LangError, Span};
use crate::problem::{Address, Endpoint, ExprR, Flow, FlowId, Problem, Value, VarId, Variable};

/// Resolves symbolic endpoint names to addresses.
pub trait Resolver {
    /// Returns the address for `name`, or `None` if unknown.
    fn resolve(&self, name: &str) -> Option<Address>;
}

/// A resolver backed by an explicit name → address map.
#[derive(Clone, Debug, Default)]
pub struct MapResolver {
    map: HashMap<String, Address>,
}

impl MapResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a mapping, returning `self` for chaining.
    pub fn with(mut self, name: impl Into<String>, addr: Address) -> Self {
        self.map.insert(name.into(), addr);
        self
    }

    /// Adds a mapping.
    pub fn insert(&mut self, name: impl Into<String>, addr: Address) {
        self.map.insert(name.into(), addr);
    }
}

impl Resolver for MapResolver {
    fn resolve(&self, name: &str) -> Option<Address> {
        self.map.get(name).copied()
    }
}

/// A resolver that assigns a fresh address to every new name it sees.
///
/// Convenient for tests and examples where hosts are purely symbolic.
/// Addresses are allocated sequentially starting from `10.0.0.1`.
#[derive(Debug, Default)]
pub struct InterningResolver {
    inner: RefCell<(HashMap<String, Address>, u32)>,
}

impl InterningResolver {
    /// Creates an interning resolver starting at `10.0.0.1`.
    pub fn new() -> Self {
        InterningResolver {
            inner: RefCell::new((HashMap::new(), 0x0A00_0001)),
        }
    }

    /// Returns the interned table so callers can map addresses back to names.
    pub fn table(&self) -> HashMap<String, Address> {
        self.inner.borrow().0.clone()
    }
}

impl Resolver for InterningResolver {
    fn resolve(&self, name: &str) -> Option<Address> {
        let mut inner = self.inner.borrow_mut();
        if let Some(addr) = inner.0.get(name) {
            return Some(*addr);
        }
        let addr = Address(inner.1);
        inner.1 += 1;
        inner.0.insert(name.to_string(), addr);
        Some(addr)
    }
}

/// What a name declared in the query denotes. Variables and flows share
/// one namespace, so a single map keyed on the AST's own text serves both.
#[derive(Clone, Copy)]
enum Named {
    Var(VarId),
    Flow(FlowId),
}

type Names<'q> = HashMap<&'q str, Named>;

/// Resolves a parsed query into a problem instance.
///
/// # Examples
///
/// ```
/// use cloudtalk_lang::{parse_query, resolve, MapResolver, Address};
///
/// let q = parse_query("A = (10.0.0.2 10.0.0.3)\nf1 A -> client size 256M").unwrap();
/// let resolver = MapResolver::new().with("client", Address(0x0A000001));
/// let problem = resolve(&q, &resolver).unwrap();
/// assert_eq!(problem.vars.len(), 1);
/// assert_eq!(problem.flows.len(), 1);
/// ```
pub fn resolve(query: &Query, resolver: &impl Resolver) -> Result<Problem, LangError> {
    let n_vars: usize = query.var_decls().map(|d| d.names.len()).sum();
    let n_flows = query.flows().count();
    let mut problem = Problem {
        vars: Vec::with_capacity(n_vars),
        flows: Vec::with_capacity(n_flows),
        distinct: true,
    };
    let mut names: Names<'_> = HashMap::with_capacity(n_vars + n_flows);

    // Pass 1: variables.
    for (pool, decl) in query.var_decls().enumerate() {
        let mut candidates = Vec::with_capacity(decl.values.len());
        for value in &decl.values {
            candidates.push(match value {
                EndpointAst::Addr { addr, span } => {
                    if *addr == 0 {
                        return Err(LangError::new(
                            "`0.0.0.0` (unknown) cannot be a candidate value",
                            *span,
                        ));
                    }
                    Value::Addr(Address(*addr))
                }
                EndpointAst::Disk { .. } => Value::Disk,
                EndpointAst::Name(ident) => {
                    let addr = resolver.resolve(&ident.text).ok_or_else(|| {
                        LangError::new(
                            format!("unknown host `{}` in value pool", ident.text),
                            ident.span,
                        )
                    })?;
                    Value::Addr(addr)
                }
            });
        }
        for (i, name) in decl.names.iter().enumerate() {
            let Entry::Vacant(slot) = names.entry(&name.text) else {
                return Err(LangError::new(
                    format!("variable `{}` declared twice", name.text),
                    name.span,
                ));
            };
            slot.insert(Named::Var(VarId(problem.vars.len())));
            // The last name of a chained declaration takes the pool itself.
            let candidates = if i + 1 == decl.names.len() {
                std::mem::take(&mut candidates)
            } else {
                candidates.clone()
            };
            problem.vars.push(Variable {
                name: name.text.clone(),
                candidates,
                pool,
            });
        }
    }

    // Pass 2: flow names (so references can be forward).
    for (idx, flow) in query.flows().enumerate() {
        if let Some(name) = &flow.name {
            let message = match names.entry(&name.text) {
                Entry::Vacant(slot) => {
                    slot.insert(Named::Flow(FlowId(idx)));
                    continue;
                }
                Entry::Occupied(taken) => match taken.get() {
                    Named::Flow(_) => format!("flow `{}` defined twice", name.text),
                    Named::Var(_) => format!("`{}` is both a variable and a flow name", name.text),
                },
            };
            return Err(LangError::new(message, name.span));
        }
    }

    // Pass 3: flows.
    for flow_def in query.flows() {
        let src = resolve_endpoint(&flow_def.src, &names, resolver)?;
        let dst = resolve_endpoint(&flow_def.dst, &names, resolver)?;
        if src == Endpoint::Disk && dst == Endpoint::Disk {
            return Err(LangError::new(
                "flow cannot have `disk` as both endpoints",
                flow_def.span,
            ));
        }
        let mut flow = Flow::new(flow_def.name.as_ref().map(|n| n.text.clone()), src, dst);
        for attr in &flow_def.attrs {
            let expr = resolve_expr(&attr.value, &names, n_flows)?;
            flow.set_attr(attr.kind, expr);
        }
        problem.flows.push(flow);
    }

    check_size_cycles(&problem)?;
    Ok(problem)
}

fn resolve_endpoint(
    ep: &EndpointAst,
    names: &Names<'_>,
    resolver: &impl Resolver,
) -> Result<Endpoint, LangError> {
    Ok(match ep {
        EndpointAst::Addr { addr: 0, .. } => Endpoint::Unknown,
        EndpointAst::Addr { addr, .. } => Endpoint::Addr(Address(*addr)),
        EndpointAst::Disk { .. } => Endpoint::Disk,
        EndpointAst::Name(ident) => {
            if let Some(Named::Var(var)) = names.get(ident.text.as_str()) {
                Endpoint::Var(*var)
            } else if let Some(addr) = resolver.resolve(&ident.text) {
                Endpoint::Addr(addr)
            } else {
                return Err(LangError::new(
                    format!(
                        "`{}` is neither a declared variable nor a known host",
                        ident.text
                    ),
                    ident.span,
                ));
            }
        }
    })
}

fn resolve_expr(expr: &Expr, names: &Names<'_>, n_flows: usize) -> Result<ExprR, LangError> {
    Ok(match expr {
        Expr::Literal { value, .. } => ExprR::Literal(*value),
        Expr::Ref { attr, flow, span } => {
            let id = match flow {
                FlowRef::Named(ident) => match names.get(ident.text.as_str()) {
                    Some(Named::Flow(id)) => *id,
                    _ => {
                        return Err(LangError::new(
                            format!("reference to unknown flow `{}`", ident.text),
                            *span,
                        ))
                    }
                },
                FlowRef::Index { index, span } => {
                    if *index == 0 || *index > n_flows {
                        return Err(LangError::new(
                            format!(
                                "flow index {index} out of range (query has {n_flows} flows)"
                            ),
                            *span,
                        ));
                    }
                    FlowId(index - 1)
                }
            };
            ExprR::Ref(*attr, id)
        }
        Expr::Binary { op, lhs, rhs } => ExprR::Binary(
            *op,
            Box::new(resolve_expr(lhs, names, n_flows)?),
            Box::new(resolve_expr(rhs, names, n_flows)?),
        ),
    })
}

/// Rejects cyclic `size` references (`sz(f)` chains must be a DAG; a flow's
/// size depending on itself has no solution).
///
/// A depth-first search over the size dependencies, kept on an explicit
/// stack so a long `sz(…)` chain cannot overflow the thread's stack. It
/// allocates nothing when no flow's size refers to another flow.
fn check_size_cycles(problem: &Problem) -> Result<(), LangError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }

    /// Calls `f` with every flow `flow`'s size refers to, in source order.
    fn for_each_size_dep(flow: &Flow, mut f: impl FnMut(usize)) {
        if let Some(expr) = flow.attr(AttrKind::Size) {
            expr.for_each_ref(&mut |attr, dep| {
                if attr == RefAttr::Size {
                    f(dep.0);
                }
            });
        }
    }

    /// Greys `idx` and pushes its frame: its still-white dependencies go
    /// on `pending`, and the frame is `(idx, first pending slot, cursor)`.
    fn enter(
        problem: &Problem,
        marks: &mut [Mark],
        pending: &mut Vec<usize>,
        frames: &mut Vec<(usize, usize, usize)>,
        idx: usize,
    ) -> Result<(), LangError> {
        marks[idx] = Mark::Grey;
        let flow = &problem.flows[idx];
        let mut cycle: Option<usize> = None;
        for_each_size_dep(flow, |dep| {
            if marks[dep] == Mark::Grey {
                cycle = Some(dep);
            }
        });
        if let Some(at) = cycle {
            let name = problem.flows[at]
                .name
                .clone()
                .unwrap_or_else(|| format!("#{at}"));
            return Err(LangError::new(
                format!("cyclic `size` reference involving flow `{name}`"),
                Span::DUMMY,
            ));
        }
        let start = pending.len();
        for_each_size_dep(flow, |dep| {
            if marks[dep] == Mark::White {
                pending.push(dep);
            }
        });
        frames.push((idx, start, start));
        Ok(())
    }

    let mut any_dep = false;
    for flow in &problem.flows {
        for_each_size_dep(flow, |_| any_dep = true);
    }
    if !any_dep {
        return Ok(());
    }

    let mut marks = vec![Mark::White; problem.flows.len()];
    let mut pending: Vec<usize> = Vec::new();
    let mut frames: Vec<(usize, usize, usize)> = Vec::new();
    for root in 0..problem.flows.len() {
        if marks[root] != Mark::White {
            continue;
        }
        enter(problem, &mut marks, &mut pending, &mut frames, root)?;
        while let Some(frame) = frames.last_mut() {
            let (idx, start, cursor) = *frame;
            if cursor == pending.len() {
                marks[idx] = Mark::Black;
                pending.truncate(start);
                frames.pop();
                continue;
            }
            frame.2 += 1;
            let dep = pending[cursor];
            if marks[dep] == Mark::White {
                enter(problem, &mut marks, &mut pending, &mut frames, dep)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn intern(src: &str) -> Result<Problem, LangError> {
        resolve(&parse_query(src).unwrap(), &InterningResolver::new())
    }

    #[test]
    fn resolves_figure2() {
        let p = intern("A = (10.0.0.2 10.0.0.3)\nf1 A -> 10.0.0.1 size 256M").unwrap();
        assert_eq!(p.vars.len(), 1);
        assert_eq!(p.vars[0].candidates.len(), 2);
        assert_eq!(p.flows[0].src, Endpoint::Var(VarId(0)));
        assert_eq!(p.flows[0].dst, Endpoint::Addr(Address(0x0A000001)));
    }

    #[test]
    fn chained_vars_share_pool() {
        let p = intern("B = C = D = (s1 s2 s3)").unwrap();
        assert_eq!(p.vars.len(), 3);
        assert!(p.vars.iter().all(|v| v.pool == 0));
        assert_eq!(p.vars[0].candidates, p.vars[2].candidates);
    }

    #[test]
    fn separate_decls_get_separate_pools() {
        let p = intern("A = (x y)\nB = (z w)").unwrap();
        assert_eq!(p.vars[0].pool, 0);
        assert_eq!(p.vars[1].pool, 1);
    }

    #[test]
    fn duplicate_variable_rejected() {
        let err = intern("A = (x y)\nA = (z)").unwrap_err();
        assert!(err.message.contains("declared twice"));
    }

    #[test]
    fn duplicate_flow_name_rejected() {
        let err = intern("f1 a -> b size 1\nf1 b -> a size 1").unwrap_err();
        assert!(err.message.contains("defined twice"));
    }

    #[test]
    fn unknown_flow_ref_rejected() {
        let err = intern("f1 a -> b size sz(f9)").unwrap_err();
        assert!(err.message.contains("unknown flow"));
    }

    #[test]
    fn index_references_resolve() {
        let p = intern("f1 a -> b size 100M\nf2 b -> c size sz(1)").unwrap();
        assert_eq!(
            p.flows[1].attr(AttrKind::Size),
            Some(&ExprR::Ref(crate::ast::RefAttr::Size, FlowId(0)))
        );
    }

    #[test]
    fn out_of_range_index_rejected() {
        let err = intern("f1 a -> b size sz(7)").unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn rate_cycles_allowed() {
        // Coupled rates are the paper's idiom for pipelined transfers.
        let p = intern(
            "f1 disk -> a size 100M rate r(f2)\nf2 a -> b size sz(f1) rate r(f1)",
        );
        assert!(p.is_ok());
    }

    #[test]
    fn size_self_cycle_rejected() {
        let err = intern("f1 a -> b size sz(f2)\nf2 b -> c size sz(f1)").unwrap_err();
        assert!(err.message.contains("cyclic"));
    }

    #[test]
    fn disk_to_disk_rejected() {
        let err = intern("disk -> disk size 1").unwrap_err();
        assert!(err.message.contains("disk"));
    }

    #[test]
    fn unknown_source_resolves() {
        let p = intern("f1 0.0.0.0 -> a size 1G").unwrap();
        assert_eq!(p.flows[0].src, Endpoint::Unknown);
    }

    #[test]
    fn unknown_in_pool_rejected() {
        let err = intern("A = (0.0.0.0 10.0.0.1)").unwrap_err();
        assert!(err.message.contains("candidate"));
    }

    #[test]
    fn disk_allowed_in_pool() {
        let p = intern("A = (disk 10.0.0.1)\nf1 A -> 10.0.0.2 size 1M").unwrap();
        assert_eq!(p.vars[0].candidates[0], Value::Disk);
    }

    #[test]
    fn map_resolver_rejects_unknown_names() {
        let q = parse_query("f1 mystery -> 10.0.0.1 size 1").unwrap();
        let err = resolve(&q, &MapResolver::new()).unwrap_err();
        assert!(err.message.contains("mystery"));
    }

    #[test]
    fn variable_and_flow_name_collision_rejected() {
        let err = intern("A = (x y)\nA b -> c size 1").unwrap_err();
        assert!(err.message.contains("both a variable and a flow"));
    }

    #[test]
    fn mentioned_addresses_cover_pools_and_endpoints() {
        let p = intern("A = (10.0.0.5 10.0.0.6)\nf1 A -> 10.0.0.7 size 1").unwrap();
        let addrs = p.mentioned_addresses();
        assert_eq!(addrs.len(), 3);
    }
}
