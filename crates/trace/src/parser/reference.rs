//! The reference line parser the decode kernel is tested against: `&str`
//! fields from [`FieldIter`], `str::parse` for every number, and the symbol
//! memo alone in front of the space. Test-only; `differential.rs` holds
//! the windowed [`TextStreamReader`](crate::TextStreamReader) to this
//! parser, fed one line at a time: its records, errors and interning
//! order.

use super::{parse_value, ParseError};
use crate::ctx::AnalysisCtx;
use crate::intern::{SymId, SymStr};
use crate::name::Name;
use crate::record::{OpTag, Operand, Record};
use std::collections::HashMap;

/// The reference parser. Feed it lines; finished records come out.
pub(super) struct Reference {
    ctx: AnalysisCtx,
    memo: HashMap<SymStr, SymId>,
    current: Option<Record>,
    line_no: u64,
}

impl Reference {
    pub(super) fn with_ctx(ctx: AnalysisCtx) -> Self {
        Reference {
            ctx,
            memo: HashMap::new(),
            current: None,
            line_no: 0,
        }
    }

    /// Intern through the memo: repeat symbols never touch the space lock.
    fn intern(&mut self, s: &str) -> SymId {
        if let Some(&id) = self.memo.get(s) {
            return id;
        }
        let id = self.ctx.intern(s);
        self.memo.insert(self.ctx.resolve(id), id);
        id
    }

    /// Like [`Name::parse`], but interning through the parser's memo.
    fn parse_name(&mut self, s: &str) -> Name {
        if s.is_empty() || s == " " {
            Name::None
        } else if s.bytes().all(|b| b.is_ascii_digit()) {
            match s.parse::<u32>() {
                Ok(n) => Name::Temp(n),
                Err(_) => Name::Sym(self.intern(s)),
            }
        } else {
            Name::Sym(self.intern(s))
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line_no,
            message: message.into(),
        }
    }

    /// Feed one line. Returns a completed record when the line *starts a new
    /// block* and a previous block was in flight.
    pub(super) fn feed_line(&mut self, line: &str) -> Result<Option<Record>, ParseError> {
        self.line_no += 1;
        let line = line.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            return Ok(None);
        }
        let mut fields = FieldIter::new(line);
        let tag = fields.next().ok_or_else(|| self.err("empty line"))?;
        if tag == "0" {
            let done = self.current.take();
            let rec = self.parse_header(&mut fields)?;
            self.current = Some(rec);
            Ok(done)
        } else {
            let op = self.parse_operand(tag, &mut fields)?;
            if self.current.is_none() {
                return Err(self.err("operand line before any header"));
            }
            if op.tag == OpTag::Result && self.current.as_ref().is_some_and(|c| c.result.is_some())
            {
                return Err(self.err("duplicate result line"));
            }
            if let Some(current) = self.current.as_mut() {
                if op.tag == OpTag::Result {
                    current.result = Some(op);
                } else {
                    current.operands.push(op);
                }
            }
            Ok(None)
        }
    }

    /// Flush the final in-flight record at end of input.
    pub(super) fn finish(&mut self) -> Option<Record> {
        self.current.take()
    }

    fn parse_header(&mut self, fields: &mut FieldIter<'_>) -> Result<Record, ParseError> {
        let src_line: i32 = self.take_parse(fields, "src line")?;
        let func = {
            let f = fields.next().ok_or_else(|| self.err("missing function"))?;
            self.intern(f)
        };
        let bb_str = fields.next().ok_or_else(|| self.err("missing bb id"))?;
        let bb = {
            let (l, c) = bb_str
                .split_once(':')
                .ok_or_else(|| self.err(format!("malformed bb id `{bb_str}`")))?;
            (
                l.parse::<u32>()
                    .map_err(|_| self.err(format!("bad bb line `{l}`")))?,
                c.parse::<u32>()
                    .map_err(|_| self.err(format!("bad bb col `{c}`")))?,
            )
        };
        let bb_label = {
            let l = fields.next().ok_or_else(|| self.err("missing bb label"))?;
            self.intern(l)
        };
        let opcode: u16 = self.take_parse(fields, "opcode")?;
        let dyn_id: u64 = self.take_parse(fields, "dyn id")?;
        Ok(Record {
            src_line,
            func,
            bb,
            bb_label,
            opcode,
            dyn_id,
            operands: Vec::new(),
            result: None,
        })
    }

    fn take_parse<T: std::str::FromStr>(
        &self,
        fields: &mut FieldIter<'_>,
        what: &str,
    ) -> Result<T, ParseError> {
        let f = fields
            .next()
            .ok_or_else(|| self.err(format!("missing {what}")))?;
        f.parse::<T>()
            .map_err(|_| self.err(format!("bad {what} `{f}`")))
    }

    fn parse_operand(
        &mut self,
        tag: &str,
        fields: &mut FieldIter<'_>,
    ) -> Result<Operand, ParseError> {
        let tag = match tag {
            "r" => OpTag::Result,
            "f" => OpTag::Param,
            d => {
                let i: u8 = d
                    .parse()
                    .map_err(|_| self.err(format!("bad operand tag `{d}`")))?;
                if i == 0 {
                    return Err(self.err("operand id 0 is reserved for headers"));
                }
                OpTag::Pos(i)
            }
        };
        let bits: u16 = self.take_parse(fields, "operand bits")?;
        let value_str = fields
            .next()
            .ok_or_else(|| self.err("missing operand value"))?;
        let value = parse_value(value_str)
            .ok_or_else(|| self.err(format!("bad operand value `{value_str}`")))?;
        let is_reg_str = fields.next().ok_or_else(|| self.err("missing is_reg"))?;
        let is_reg = match is_reg_str {
            "1" => true,
            "0" => false,
            other => return Err(self.err(format!("bad is_reg `{other}`"))),
        };
        let name = self.parse_name(fields.next().unwrap_or(""));
        Ok(Operand {
            tag,
            bits,
            value,
            is_reg,
            name,
        })
    }
}

/// Iterator over comma-separated fields, ignoring a single trailing comma.
struct FieldIter<'a> {
    rest: &'a str,
}

impl<'a> FieldIter<'a> {
    fn new(s: &'a str) -> Self {
        FieldIter {
            rest: s.strip_suffix(',').unwrap_or(s),
        }
    }
}

impl<'a> Iterator for FieldIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        match self.rest.split_once(',') {
            Some((head, tail)) => {
                self.rest = tail;
                Some(head)
            }
            None => {
                let head = self.rest;
                self.rest = "";
                Some(head)
            }
        }
    }
}
