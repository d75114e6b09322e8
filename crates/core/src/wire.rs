//! Binary wire codec for VOLAP messages and coordination records.
//!
//! A small hand-rolled protocol over [`bytes`]: length-prefixed strings,
//! fixed-width integers, and composites for [`Item`], [`QueryBox`], [`Mbr`]
//! and [`Aggregate`]. Every encoder has a matching checked decoder that
//! fails with a message instead of panicking on malformed input.

use bytes::{Buf, BufMut};
use volap_dims::{Aggregate, Item, Key, Mbr, QueryBox, Schema};

/// Decoding failure description.
pub type WireError = String;

fn need(buf: &impl Buf, n: usize, what: &str) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(format!(
            "truncated message: need {n} bytes for {what}, have {}",
            buf.remaining()
        ))
    } else {
        Ok(())
    }
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut &[u8]) -> Result<String, WireError> {
    need(buf, 4, "string length")?;
    let len = buf.get_u32() as usize;
    need(buf, len, "string body")?;
    let bytes = buf[..len].to_vec();
    buf.advance(len);
    String::from_utf8(bytes).map_err(|e| format!("invalid UTF-8 string: {e}"))
}

/// Append a length-prefixed byte blob.
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    buf.put_u32(b.len() as u32);
    buf.put_slice(b);
}

/// Read a length-prefixed byte blob.
pub fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, WireError> {
    need(buf, 4, "blob length")?;
    let len = buf.get_u32() as usize;
    need(buf, len, "blob body")?;
    let out = buf[..len].to_vec();
    buf.advance(len);
    Ok(out)
}

/// Append an item (coordinate vector + measure).
pub fn put_item(buf: &mut Vec<u8>, item: &Item) {
    buf.put_u16(item.coords.len() as u16);
    for &c in item.coords.iter() {
        buf.put_u64(c);
    }
    buf.put_f64(item.measure);
}

/// Read an item.
pub fn get_item(buf: &mut &[u8]) -> Result<Item, WireError> {
    need(buf, 2, "item dims")?;
    let dims = buf.get_u16() as usize;
    need(buf, dims * 8 + 8, "item body")?;
    let coords: Vec<u64> = (0..dims).map(|_| buf.get_u64()).collect();
    Ok(Item::new(coords, buf.get_f64()))
}

/// Append a query box.
pub fn put_query(buf: &mut Vec<u8>, q: &QueryBox) {
    buf.put_u16(q.ranges.len() as u16);
    for &(lo, hi) in q.ranges.iter() {
        buf.put_u64(lo);
        buf.put_u64(hi);
    }
}

/// Read a query box.
pub fn get_query(buf: &mut &[u8]) -> Result<QueryBox, WireError> {
    need(buf, 2, "query dims")?;
    let dims = buf.get_u16() as usize;
    need(buf, dims * 16, "query ranges")?;
    let ranges: Vec<(u64, u64)> = (0..dims).map(|_| (buf.get_u64(), buf.get_u64())).collect();
    for &(lo, hi) in &ranges {
        if lo > hi {
            return Err(format!("inverted query range {lo}..{hi}"));
        }
    }
    Ok(QueryBox::from_ranges(ranges))
}

/// Append a (possibly empty) bounding rectangle.
pub fn put_mbr(buf: &mut Vec<u8>, m: &Mbr) {
    match m.ranges() {
        None => buf.put_u16(0),
        Some(r) => {
            buf.put_u16(r.len() as u16);
            for &(lo, hi) in r {
                buf.put_u64(lo);
                buf.put_u64(hi);
            }
        }
    }
}

/// Read a bounding rectangle; `schema` supplies the dimensionality for the
/// empty case.
pub fn get_mbr(buf: &mut &[u8], schema: &Schema) -> Result<Mbr, WireError> {
    need(buf, 2, "mbr dims")?;
    let dims = buf.get_u16() as usize;
    if dims == 0 {
        return Ok(Mbr::empty(schema));
    }
    if dims != schema.dims() {
        return Err(format!("mbr has {dims} dims, schema has {}", schema.dims()));
    }
    need(buf, dims * 16, "mbr ranges")?;
    let ranges: Vec<(u64, u64)> = (0..dims).map(|_| (buf.get_u64(), buf.get_u64())).collect();
    for &(lo, hi) in &ranges {
        if lo > hi {
            return Err(format!("inverted mbr range {lo}..{hi}"));
        }
    }
    Ok(Mbr::from_ranges(ranges))
}

/// Append an aggregate.
pub fn put_agg(buf: &mut Vec<u8>, a: &Aggregate) {
    buf.put_u64(a.count);
    buf.put_f64(a.sum);
    buf.put_f64(a.min);
    buf.put_f64(a.max);
}

/// Read an aggregate.
pub fn get_agg(buf: &mut &[u8]) -> Result<Aggregate, WireError> {
    need(buf, 32, "aggregate")?;
    Ok(Aggregate {
        count: buf.get_u64(),
        sum: buf.get_f64(),
        min: buf.get_f64(),
        max: buf.get_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        let mut buf = Vec::new();
        put_str(&mut buf, "worker-03");
        put_bytes(&mut buf, &[1, 2, 3]);
        let mut r: &[u8] = &buf;
        assert_eq!(get_str(&mut r).unwrap(), "worker-03");
        assert_eq!(get_bytes(&mut r).unwrap(), vec![1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn item_query_mbr_agg_roundtrip() {
        let schema = Schema::uniform(3, 2, 8);
        let item = Item::new(vec![1, 2, 3], 4.5);
        let q = QueryBox::from_ranges(vec![(0, 10), (2, 2), (0, 63)]);
        let mut m = Mbr::empty(&schema);
        m.extend_item(&schema, &item);
        let a = Aggregate::of(7.0);

        let mut buf = Vec::new();
        put_item(&mut buf, &item);
        put_query(&mut buf, &q);
        put_mbr(&mut buf, &m);
        put_mbr(&mut buf, &Mbr::empty(&schema));
        put_agg(&mut buf, &a);

        let mut r: &[u8] = &buf;
        assert_eq!(get_item(&mut r).unwrap(), item);
        assert_eq!(get_query(&mut r).unwrap(), q);
        assert_eq!(get_mbr(&mut r, &schema).unwrap(), m);
        assert!(get_mbr(&mut r, &schema).unwrap().is_empty());
        assert_eq!(get_agg(&mut r).unwrap(), a);
        assert!(r.is_empty());
    }

    #[test]
    fn decoders_reject_truncation() {
        let mut buf = Vec::new();
        put_item(&mut buf, &Item::new(vec![1, 2], 3.0));
        for cut in 0..buf.len() {
            let mut r: &[u8] = &buf[..cut];
            assert!(get_item(&mut r).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn decoders_reject_inverted_ranges() {
        let mut buf = Vec::new();
        buf.put_u16(1);
        buf.put_u64(9);
        buf.put_u64(3);
        let mut r: &[u8] = &buf;
        assert!(get_query(&mut r).is_err());
        let schema = Schema::uniform(1, 1, 4);
        let mut r: &[u8] = &buf;
        assert!(get_mbr(&mut r, &schema).is_err());
    }
}
