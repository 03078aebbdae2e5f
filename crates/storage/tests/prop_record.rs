//! Property tests: the borrowed record path against the owning one.
//!
//! `Record::peek` (header + borrowed payload) must agree with
//! `Record::decode` on every input — the same fields for a well-formed
//! version, a rejection at exactly the same truncations — and encoding a
//! version straight into a page body (`RecordHeader::encode_into`, through
//! `PageStore::insert_version`) must leave the page byte-identical to
//! inserting the separately encoded bytes. Plain, chained and tombstone
//! versions are all drawn.

use proptest::prelude::*;
use wattdb_common::{Key, PageId, RecordId, SegmentId};
use wattdb_storage::{PageStore, Record, SlottedPage, FLAG_TOMBSTONE};

fn record_strategy() -> impl Strategy<Value = Record> {
    let header = (any::<u64>(), any::<u64>(), any::<u64>(), 0usize..3);
    let prev = (any::<u64>(), any::<u32>(), any::<u16>());
    (
        header,
        prev,
        proptest::collection::vec(any::<u8>(), 0..48),
        0u32..400,
    )
        .prop_map(|((key, begin, end, shape), prev, payload, extra_width)| {
            let (seg, page_no, slot) = prev;
            // `u64::MAX` is the encoding's "no previous version" segment.
            let prev = RecordId::new(PageId::new(SegmentId(seg >> 1), page_no), slot);
            match shape {
                // A plain current version.
                0 => Record::new(Key(key), begin, payload.len() as u32 + extra_width, payload),
                // A superseded version in the middle of a chain.
                1 => Record {
                    end,
                    prev: Some(prev),
                    ..Record::new(Key(key), begin, payload.len() as u32 + extra_width, payload)
                },
                // A tombstone on top of a chain.
                _ => Record {
                    prev: Some(prev),
                    ..Record::tombstone(Key(key), begin)
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn peek_agrees_with_decode(rec in record_strategy(), cut in any::<usize>()) {
        let bytes = rec.encode();
        let (header, payload) = Record::peek(&bytes).unwrap();
        let decoded = Record::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded, &rec);
        prop_assert_eq!(header, decoded.header());
        prop_assert_eq!(payload, &decoded.payload[..]);
        prop_assert_eq!(header.is_tombstone(), rec.flags & FLAG_TOMBSTONE != 0);
        prop_assert_eq!(header.logical_footprint(), rec.logical_footprint());
        // Every proper prefix is rejected by both, for the same reason.
        let cut = cut % bytes.len();
        let (peeked, decoded) = (Record::peek(&bytes[..cut]), Record::decode(&bytes[..cut]));
        prop_assert!(peeked.is_err() && decoded.is_err());
        prop_assert_eq!(format!("{:?}", peeked.unwrap_err()), format!("{:?}", decoded.unwrap_err()));
        // Trailing bytes past the declared payload are ignored by both.
        let mut padded = bytes.clone();
        padded.push(0xAB);
        prop_assert_eq!(Record::peek(&padded).unwrap().1, &rec.payload[..]);
        prop_assert_eq!(Record::decode(&padded).unwrap(), rec);
    }

    #[test]
    fn encoding_into_a_page_equals_inserting_encoded_bytes(
        recs in proptest::collection::vec(record_strategy(), 1..24),
    ) {
        let seg = SegmentId(1);
        let mut store = PageStore::new();
        store.add_segment(seg);
        let mut pages: Vec<SlottedPage> = Vec::new();
        for rec in &recs {
            // The owning path, by hand: encode, then insert the bytes into
            // the page the store would pick (last, else first with room).
            let logical = rec.logical_footprint();
            let page_no = match pages.last() {
                Some(last) if last.fits(logical) => pages.len() - 1,
                _ => pages.iter().position(|p| p.fits(logical)).unwrap_or_else(|| {
                    pages.push(SlottedPage::new());
                    pages.len() - 1
                }),
            };
            let slot = pages[page_no].insert(&rec.encode(), logical).unwrap();
            let page_no = page_no as u32;
            // The borrowed path: header + payload slice, encoded in place.
            let (rid, _) = store
                .insert_version(seg, &rec.header(), &rec.payload, u32::MAX)
                .unwrap();
            prop_assert_eq!(rid, RecordId::new(PageId::new(seg, page_no), slot));
            prop_assert_eq!(store.peek(rid).unwrap(), rec.header());
            prop_assert_eq!(&store.read_record(rid).unwrap(), rec);
        }
        prop_assert_eq!(store.page_count(seg), pages.len());
        for (page_no, by_hand) in pages.iter().enumerate() {
            let in_place = store.page(PageId::new(seg, page_no as u32)).unwrap();
            prop_assert_eq!(in_place.physical_bytes(), by_hand.physical_bytes());
            prop_assert_eq!(in_place.logical_used(), by_hand.logical_used());
            let (a, b): (Vec<_>, Vec<_>) = (in_place.iter().collect(), by_hand.iter().collect());
            prop_assert_eq!(a, b);
        }
    }
}
