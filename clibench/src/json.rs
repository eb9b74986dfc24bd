//! Just enough JSON output for the result line, the results file and the
//! span file.

/// A JSON object under construction; keys keep insertion order.
#[derive(Clone, Debug, Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    pub fn str(self, key: &str, v: &str) -> Obj {
        self.raw(key, string(v))
    }

    /// A number with all its digits; non-finite values become `null`.
    pub fn num(self, key: &str, v: f64) -> Obj {
        self.raw(key, number(v))
    }

    pub fn bool(self, key: &str, v: bool) -> Obj {
        self.raw(key, v.to_string())
    }

    pub fn obj(self, key: &str, v: Obj) -> Obj {
        self.raw(key, v.render())
    }

    /// An array of already rendered values.
    pub fn arr(self, key: &str, items: impl IntoIterator<Item = String>) -> Obj {
        let body: Vec<String> = items.into_iter().collect();
        self.raw(key, format!("[{}]", body.join(",")))
    }

    /// A value that is already valid JSON.
    pub fn raw(mut self, key: &str, rendered: String) -> Obj {
        self.0.push((key.to_string(), rendered));
        self
    }

    pub fn keys(&self) -> Vec<&str> {
        self.0.iter().map(|(k, _)| k.as_str()).collect()
    }

    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}:{}", string(k), v))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects() {
        let o = Obj::new()
            .str("name", "a\"b\n")
            .num("x", 1.25)
            .num("bad", f64::NAN)
            .bool("ok", true)
            .obj("inner", Obj::new().num("n", 3.0))
            .arr("list", ["1".to_string(), "2".to_string()]);
        assert_eq!(
            o.render(),
            r#"{"name":"a\"b\n","x":1.25,"bad":null,"ok":true,"inner":{"n":3},"list":[1,2]}"#
        );
    }
}
