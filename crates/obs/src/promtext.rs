//! A small Prometheus-text-format parser — enough to validate that a
//! `STATS` scrape is well-formed and to read series values back in
//! smoke tests. Not a general client:
//! it parses the subset [`crate::MetricsSnapshot::to_prometheus_text`]
//! emits (which is the subset a real Prometheus scraper needs).

/// One parsed series sample.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// Parses a text exposition. Comment lines (`# …`) are skipped; every
/// other non-empty line must be `name[{labels}] value`. Returns an
/// error naming the first malformed line.
pub fn parse(text: &str) -> Result<Vec<ParsedSample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let sample = parse_line(line).map_err(|e| format!("line {}: {e}: {line}", lineno + 1))?;
        out.push(sample);
    }
    Ok(out)
}

fn parse_line(line: &str) -> Result<ParsedSample, String> {
    let (series, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| "missing value".to_string())?;
    let value: f64 = value.parse().map_err(|_| "unparseable value".to_string())?;
    let (name, labels) = match series.split_once('{') {
        None => (series.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| "unterminated label set".to_string())?;
            (name.to_string(), parse_labels(body)?)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err("invalid metric name".to_string());
    }
    Ok(ParsedSample {
        name,
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| "label missing '='".to_string())?;
        let key = rest[..eq].to_string();
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err("label value not quoted".to_string());
        }
        rest = &rest[1..];
        let end = rest
            .find('"')
            .ok_or_else(|| "unterminated label value".to_string())?;
        labels.push((key, rest[..end].to_string()));
        rest = &rest[end + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.is_empty() {
            return Err("junk after label value".to_string());
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_promtext_parses_plain_and_labelled_series() {
        let text = "# HELP x_total help\n# TYPE x_total counter\nx_total 3\nlat_bucket{le=\"+Inf\",shard=\"0\"} 17\n# EOF\n";
        let parsed = parse(text).expect("well-formed");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "x_total");
        assert_eq!(parsed[0].value, 3.0);
        assert_eq!(parsed[1].labels.len(), 2);
        assert_eq!(parsed[1].labels[0], ("le".to_string(), "+Inf".to_string()));
    }

    #[test]
    fn obs_promtext_rejects_malformed_lines() {
        assert!(parse("novalue\n").is_err());
        assert!(parse("bad name 3\n").is_err());
        assert!(parse("x{unterminated 3\n").is_err());
        assert!(parse("x{k=unquoted} 3\n").is_err());
    }
}
