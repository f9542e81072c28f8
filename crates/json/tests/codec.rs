//! The listing macros and field encodings: each listing is one format,
//! and both directions must agree on it.

use lrc_json::{
    json_enum, json_struct, parse, Armed, Cx, Dec, Fixed, FromJson, Idx, InPlace, Opt, OrDefault,
    Overlay, Pairs, Plain, Row, Rows, Seq, ToJson, Value, Via,
};
use std::collections::{BTreeMap, HashSet};

#[derive(Debug, Clone, Default, PartialEq)]
struct Entry {
    big: u64,
    node: usize,
    renamed: bool,
    pair: (u64, usize),
    maybe: Option<u64>,
    added_later: Vec<usize>,
}

json_struct!(Entry {
    big: Dec,
    node: Idx,
    renamed as "r",
    pair: (Dec, Idx),
    maybe: Opt<Dec>,
    added_later: OrDefault<Seq<Idx>>,
} where Entry::small_node);

impl Entry {
    fn small_node(&self) -> bool {
        self.node < 100
    }
}

impl Row for Entry {
    const KEY: &'static str = "k";
}

#[test]
fn struct_listing_is_the_format() {
    let e = Entry {
        big: u64::MAX,
        node: 3,
        renamed: true,
        pair: (1 << 60, 2),
        maybe: None,
        added_later: vec![1],
    };
    let text = e.to_json().dump();
    assert_eq!(
        text,
        r#"{"big":"18446744073709551615","node":3,"r":true,"pair":["1152921504606846976",2],"maybe":null,"added_later":[1]}"#
    );
    assert_eq!(Entry::from_json(&parse(&text).unwrap()), Some(e.clone()));

    // Idx fields are checked against the decoding context's bound.
    let v = e.to_json();
    assert!(Entry::from_json_in(&v, &Cx { bound: 4 }).is_some());
    assert!(Entry::from_json_in(&v, &Cx { bound: 3 }).is_none());

    // An older document without the later field decodes to its default; a
    // value failing the `where` check does not decode.
    let old = r#"{"big":"1","node":0,"r":false,"pair":["0",0],"maybe":"7"}"#;
    let back = Entry::from_json(&parse(old).unwrap()).unwrap();
    assert_eq!((back.maybe, back.added_later), (Some(7), vec![]));
    let bad = r#"{"big":"1","node":100,"r":false,"pair":["0",0],"maybe":null}"#;
    assert_eq!(Entry::from_json(&parse(bad).unwrap()), None);
    let err = Entry::from_json_detailed(&parse(r#"{"node":0}"#).unwrap()).unwrap_err();
    assert_eq!(err.field, "big");
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Dot,
    Line(u64, usize),
    Box { w: u64, h: u32 },
}

json_enum!(Shape {
    Dot {} => "dot",
    Line(len: Dec, node: Idx) => "line",
    Box { w: Dec, h as "height" } => "box",
});

#[derive(Debug, Clone, Copy, PartialEq)]
enum Color {
    Red,
    Blue,
}

json_enum!(Color as str { Red => "red", Blue => "blue" });

#[test]
fn enum_listings_tag_their_variants() {
    let shapes = vec![Shape::Dot, Shape::Line(5, 1), Shape::Box { w: 2, h: 3 }];
    let text = shapes.to_json().dump();
    assert_eq!(
        text,
        r#"[{"t":"dot"},{"t":"line","len":"5","node":1},{"t":"box","w":"2","height":3}]"#
    );
    assert_eq!(Vec::<Shape>::from_json(&parse(&text).unwrap()), Some(shapes));
    assert_eq!(Shape::from_json(&parse(r#"{"t":"cube"}"#).unwrap()), None);
    assert_eq!(Color::Blue.to_json().dump(), r#""blue""#);
    assert_eq!(Color::from_json(&Value::Str("red".into())), Some(Color::Red));
}

#[test]
fn maps_and_sets_serialize_in_key_order() {
    let set: HashSet<u64> = [30, 10, 20].into_iter().collect();
    assert_eq!(Seq::<Dec>::enc(&set).dump(), r#"["10","20","30"]"#);

    let map: BTreeMap<u64, Entry> = [(9, Entry::default()), (4, Entry::default())].into();
    let pairs = <Pairs<Dec, Plain> as Via<BTreeMap<u64, Entry>>>::enc(&map);
    assert_eq!(pairs[0][0].as_str(), Some("4"));
    let rows = <Rows<Dec> as Via<BTreeMap<u64, Entry>>>::enc(&map);
    assert_eq!(rows[1]["k"].as_str(), Some("9"));
    assert_eq!(rows[1].as_object().unwrap()[1].0, "big", "key first, then the value's members");
    let back: BTreeMap<u64, Entry> = Rows::<Dec>::dec(&rows, &Cx::UNBOUNDED).unwrap();
    assert_eq!(back, map);
    let dup = parse(r#"[["1",{}],["1",{}]]"#).unwrap();
    assert!(<Pairs<Dec, Plain> as Via<BTreeMap<u64, Value>>>::dec(&dup, &Cx::UNBOUNDED).is_none());
}

/// A value built from configuration, then overlaid with a document.
#[derive(Debug, PartialEq)]
struct Sized {
    cap: usize,
    slots: Vec<u64>,
    extra: Option<Vec<u64>>,
}

/// A bare key computed from the whole value.
enum Total {}

impl Via<Sized> for Total {
    fn enc(x: &Sized) -> Value {
        Dec::enc(&x.slots.iter().sum())
    }
    fn dec_into(v: &Value, cx: &Cx, x: &mut Sized) -> Option<()> {
        (Dec::dec(v, cx)? == x.slots.iter().sum::<u64>()).then_some(())
    }
}

json_struct!(Sized in place { slots: Fixed<Dec>, extra: Armed<Seq<Dec>>, "total": Total });

#[test]
fn in_place_listings_overlay_configured_state() {
    let src = Sized { cap: 2, slots: vec![5, 6], extra: Some(vec![1]) };
    let text = src.save().dump();
    assert_eq!(text, r#"{"slots":["5","6"],"extra":["1"],"total":"11"}"#);
    let doc = parse(&text).unwrap();

    let mut dst = Sized { cap: 2, slots: vec![0, 0], extra: Some(vec![]) };
    assert_eq!(dst.load(&doc, &Cx::UNBOUNDED), Some(()));
    assert_eq!(dst, src, "unlisted fields (cap) keep their configured value");

    // Shapes configuration decided must match the document.
    let mut wrong_len = Sized { cap: 3, slots: vec![0; 3], extra: Some(vec![]) };
    assert_eq!(wrong_len.load(&doc, &Cx::UNBOUNDED), None);
    let mut unarmed = Sized { cap: 2, slots: vec![0, 0], extra: None };
    assert_eq!(unarmed.load(&doc, &Cx::UNBOUNDED), None);
    let mut boxed = vec![Box::new(Sized { cap: 2, slots: vec![0, 0], extra: Some(vec![]) })];
    let list = Value::Array(vec![doc]);
    assert_eq!(Fixed::<InPlace>::dec_into(&list, &Cx::UNBOUNDED, &mut boxed), Some(()));
    assert_eq!(*boxed[0], src);
}
