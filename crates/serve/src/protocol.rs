//! Request/response framing for the newline-delimited JSON protocol.
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! request  = { "method": <string>, "id"?: <u64>, "params"?: <object> }
//! response = { "ok": true,  "id": <u64|null>, "result": <value> }
//!          | { "ok": false, "id": <u64|null>, "error":
//!              { "code": <string>, "message": <string> } }
//! ```
//!
//! `result` is always the **last** key of a success line and holds exactly
//! the CLI `--json` body for the equivalent command, so
//! [`result_slice`] can recover it as a byte slice for wire-determinism
//! comparisons. Error codes are the closed set in [`ErrorCode`]; clients
//! can dispatch on `code` without parsing `message`.

use strg_obs::Json;

/// Machine-readable error classes of the protocol.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    Parse,
    /// The line was JSON but not a valid request (shape or parameters).
    Invalid,
    /// The `method` is not one the server knows.
    UnknownMethod,
    /// The bounded request queue is full — retry later (admission control
    /// sheds load instead of buffering unboundedly).
    Overloaded,
    /// The request line exceeded the configured size cap; the connection
    /// is closed because line framing is lost.
    TooLarge,
    /// The server is shutting down and no longer accepts work.
    Shutdown,
    /// An I/O error while persisting (e.g. the `--db` save after ingest).
    Io,
    /// The handler failed unexpectedly; the worker survives.
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Invalid => "invalid",
            ErrorCode::UnknownMethod => "unknown_method",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Io => "io",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A structured protocol error: code plus human-readable message.
#[derive(Clone, Debug)]
pub struct WireError {
    /// Machine-readable class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// An [`ErrorCode::Invalid`] error.
    pub fn invalid(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Invalid, message)
    }
}

/// A decoded request line.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Method name (`ingest`, `query`, `stats`, `metrics`, `ping`,
    /// `shutdown`).
    pub method: String,
    /// The `params` object's key/value pairs (empty when absent).
    pub params: Vec<(String, Json)>,
}

impl Request {
    /// Validates a parsed JSON value as a request.
    pub fn from_json(v: Json) -> Result<Request, WireError> {
        let Json::Object(pairs) = v else {
            return Err(WireError::invalid("request must be a JSON object"));
        };
        let mut id = None;
        let mut method = None;
        let mut params = Vec::new();
        for (k, v) in pairs {
            match (k.as_str(), v) {
                ("id", Json::U64(n)) => id = Some(n),
                ("id", _) => return Err(WireError::invalid("id must be an unsigned integer")),
                ("method", Json::Str(s)) => method = Some(s),
                ("method", _) => return Err(WireError::invalid("method must be a string")),
                ("params", Json::Object(p)) => params = p,
                ("params", _) => return Err(WireError::invalid("params must be an object")),
                (other, _) => {
                    return Err(WireError::invalid(format!("unknown request key {other:?}")))
                }
            }
        }
        let method = method.ok_or_else(|| WireError::invalid("missing method"))?;
        Ok(Request { id, method, params })
    }

    /// Typed parameter access.
    pub fn params(&self) -> Params<'_> {
        Params(&self.params)
    }
}

/// Typed accessors over a request's `params` object.
pub struct Params<'a>(&'a [(String, Json)]);

impl<'a> Params<'a> {
    /// Typed accessors over any `params`-shaped key/value list (e.g. one
    /// element of the `query_batch` verb's `queries` array, or a parsed
    /// CLI `--batch-file` line).
    pub fn new(pairs: &'a [(String, Json)]) -> Params<'a> {
        Params(pairs)
    }

    /// The raw value under `key`.
    pub fn get(&self, key: &str) -> Option<&'a Json> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Optional string parameter; wrong type is an error.
    pub fn str_opt(&self, key: &str) -> Result<Option<&'a str>, WireError> {
        match self.get(key) {
            None => Ok(None),
            Some(Json::Str(s)) => Ok(Some(s.as_str())),
            Some(_) => Err(WireError::invalid(format!("{key} must be a string"))),
        }
    }

    /// Required string parameter.
    pub fn str_req(&self, key: &str) -> Result<&'a str, WireError> {
        self.str_opt(key)?
            .ok_or_else(|| WireError::invalid(format!("missing required param {key:?}")))
    }

    /// Optional unsigned integer with a default; wrong type is an error.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, WireError> {
        match self.get(key) {
            None => Ok(default),
            Some(Json::U64(n)) => Ok(*n),
            Some(_) => Err(WireError::invalid(format!(
                "{key} must be an unsigned integer"
            ))),
        }
    }

    /// Optional number (integers widen); wrong type is an error. A
    /// literal that overflows (`1e999`) arrives as an infinity; callers
    /// bound the value themselves.
    pub fn f64_opt(&self, key: &str) -> Result<Option<f64>, WireError> {
        match self.get(key) {
            None => Ok(None),
            Some(Json::U64(n)) => Ok(Some(*n as f64)),
            Some(Json::F64(f)) => Ok(Some(*f)),
            Some(_) => Err(WireError::invalid(format!("{key} must be a number"))),
        }
    }
}

fn id_json(id: Option<u64>) -> Json {
    match id {
        Some(n) => Json::U64(n),
        None => Json::Null,
    }
}

/// Renders a success response line (without the trailing newline).
pub fn render_ok(id: Option<u64>, result: Json) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("id", id_json(id)),
        ("result", result),
    ])
    .render()
}

/// Renders an error response line (without the trailing newline).
pub fn render_err(id: Option<u64>, err: &WireError) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("id", id_json(id)),
        (
            "error",
            Json::obj(vec![
                ("code", Json::str(err.code.as_str())),
                ("message", Json::str(&err.message)),
            ]),
        ),
    ])
    .render()
}

/// The raw bytes of a success line's `result` value.
///
/// Success lines always end with `,"result":<value>}`, so the slice is
/// everything after the first `"result":` up to the final `}`. Returns
/// `None` for error lines (no `result` key).
pub fn result_slice(line: &str) -> Option<&str> {
    const KEY: &str = "\"result\":";
    let start = line.find(KEY)? + KEY.len();
    let line = line.trim_end();
    if !line.ends_with('}') {
        return None;
    }
    Some(&line[start..line.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json_parse::parse;

    fn req(line: &str) -> Result<Request, WireError> {
        Request::from_json(parse(line).unwrap())
    }

    #[test]
    fn decodes_requests() {
        let r = req(r#"{"id":7,"method":"query","params":{"k":3,"from":"0,0"}}"#).unwrap();
        assert_eq!(r.id, Some(7));
        assert_eq!(r.method, "query");
        assert_eq!(r.params().u64_or("k", 5).unwrap(), 3);
        assert_eq!(r.params().str_req("from").unwrap(), "0,0");
        assert_eq!(r.params().u64_or("steps", 30).unwrap(), 30);
        assert!(r.params().str_opt("clip").unwrap().is_none());
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(req("[1,2]").is_err());
        assert!(req("42").is_err());
        assert!(req(r#"{"params":{}}"#).is_err(), "missing method");
        assert!(req(r#"{"method":7}"#).is_err());
        assert!(req(r#"{"method":"x","id":"seven"}"#).is_err());
        assert!(req(r#"{"method":"x","params":[1]}"#).is_err());
        assert!(req(r#"{"method":"x","bogus":1}"#).is_err());
    }

    #[test]
    fn typed_params_enforce_types() {
        let r = req(r#"{"method":"q","params":{"k":"three","r":1.5,"s":"x"}}"#).unwrap();
        assert!(r.params().u64_or("k", 5).is_err());
        assert_eq!(r.params().f64_opt("r").unwrap(), Some(1.5));
        assert!(r.params().f64_opt("s").is_err());
        assert!(r.params().str_req("missing").is_err());
    }

    #[test]
    fn response_rendering_and_result_slice() {
        let ok = render_ok(Some(3), Json::obj(vec![("hits", Json::Array(vec![]))]));
        assert_eq!(ok, r#"{"ok":true,"id":3,"result":{"hits":[]}}"#);
        assert_eq!(result_slice(&ok), Some(r#"{"hits":[]}"#));

        let err = render_err(None, &WireError::new(ErrorCode::Overloaded, "queue full"));
        assert_eq!(
            err,
            r#"{"ok":false,"id":null,"error":{"code":"overloaded","message":"queue full"}}"#
        );
        assert_eq!(result_slice(&err), None);
    }
}
