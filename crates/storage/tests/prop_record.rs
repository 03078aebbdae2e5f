//! Property tests: the one stored-version format.
//!
//! A version is encoded for a segment and decoded with it: header fields,
//! chain pointer (segment-local on the page, a full `RecordId` outside)
//! and payload come back for plain, chained and tombstone versions alike.
//! `Record::peek` (header + borrowed payload) agrees with `Record::decode`
//! on every input — the same fields for a well-formed version, the same
//! rejection of anything shorter than the header — and patching a stored
//! version in place (`stamp_begin`, `stamp_end`, `unlink_prev`) leaves the
//! bytes a decode-modify-encode would. The logical charge does not follow
//! the physical format: `logical_footprint()` is the row width plus 47.
//! Encoding straight into a page body (`RecordHeader::encode_into`, through
//! `PageStore::insert_version`) leaves the page byte-identical to
//! inserting the separately encoded bytes.

use proptest::prelude::*;
use wattdb_common::{Key, PageId, RecordId, SegmentId};
use wattdb_storage::{
    PageStore, Record, SlottedPage, FLAG_TOMBSTONE, RECORD_HEADER_LOGICAL, RECORD_HEADER_PHYSICAL,
};

// The format the claims in `docs/benchmarks.md` are made for; `Slot`'s
// eight bytes are pinned next to its definition.
const _: () = assert!(RECORD_HEADER_PHYSICAL == 33);
const _: () = assert!(RECORD_HEADER_LOGICAL == 47);

const SEG: SegmentId = SegmentId(1);

fn record_strategy() -> impl Strategy<Value = Record> {
    let header = (any::<u64>(), any::<u64>(), any::<u64>(), 0usize..3);
    // `u32::MAX` is the encoding's "no previous version" page number.
    let prev = (0..u32::MAX, any::<u16>());
    (
        header,
        prev,
        proptest::collection::vec(any::<u8>(), 0..48),
        0u32..400,
    )
        .prop_map(|((key, begin, end, shape), prev, payload, extra_width)| {
            let (page_no, slot) = prev;
            let prev = RecordId::new(PageId::new(SEG, page_no), slot);
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
        let bytes = rec.encode(SEG);
        prop_assert_eq!(bytes.len(), RECORD_HEADER_PHYSICAL + rec.payload.len());
        let (header, payload) = Record::peek(&bytes, SEG).unwrap();
        let decoded = Record::decode(&bytes, SEG).unwrap();
        prop_assert_eq!(&decoded, &rec);
        prop_assert_eq!(header, decoded.header());
        prop_assert_eq!(payload, &decoded.payload[..]);
        prop_assert_eq!(header.is_tombstone(), rec.flags & FLAG_TOMBSTONE != 0);
        // What the modeled cluster is charged is not what the bytes spend.
        prop_assert_eq!(header.logical_footprint(), rec.logical_width as usize + 47);
        prop_assert_eq!(rec.logical_footprint(), header.logical_footprint());
        // Every prefix shorter than the header is rejected by both, for the
        // same reason; from the header on, the rest is the payload.
        let cut = cut % bytes.len();
        let (peeked, decoded) = (Record::peek(&bytes[..cut], SEG), Record::decode(&bytes[..cut], SEG));
        if cut < RECORD_HEADER_PHYSICAL {
            prop_assert!(peeked.is_err() && decoded.is_err());
            prop_assert_eq!(format!("{:?}", peeked.unwrap_err()), format!("{:?}", decoded.unwrap_err()));
        } else {
            prop_assert_eq!(peeked.unwrap(), (rec.header(), &rec.payload[..cut - RECORD_HEADER_PHYSICAL]));
            prop_assert_eq!(decoded.unwrap().header(), rec.header());
        }
        // The chain pointer is segment-local: the same bytes read in
        // another segment continue there.
        let elsewhere = Record::peek(&bytes, SegmentId(2)).unwrap().0;
        prop_assert_eq!(
            elsewhere.prev,
            rec.prev.map(|p| RecordId::new(PageId::new(SegmentId(2), p.page.page_no), p.slot))
        );
    }

    #[test]
    fn patching_in_place_equals_decode_modify_encode(
        rec in record_strategy(),
        begin in any::<u64>(),
        end in any::<u64>(),
    ) {
        let mut bytes = rec.encode(SEG);
        Record::stamp_begin(&mut bytes, begin).unwrap();
        Record::stamp_end(&mut bytes, end).unwrap();
        let mut copy = Record { begin, end, ..rec };
        prop_assert_eq!(&bytes, &copy.encode(SEG));
        prop_assert_eq!(Record::begin_of(&bytes), Ok(begin));
        prop_assert_eq!(Record::end_of(&bytes), Ok(end));
        Record::unlink_prev(&mut bytes).unwrap();
        copy.prev = None;
        prop_assert_eq!(&bytes, &copy.encode(SEG));
        // Nothing shorter than a header is patched or read.
        let short = &mut bytes[..RECORD_HEADER_PHYSICAL - 1];
        prop_assert!(Record::stamp_begin(short, 0).is_err());
        prop_assert!(Record::stamp_end(short, 0).is_err());
        prop_assert!(Record::unlink_prev(short).is_err());
        prop_assert!(Record::begin_of(short).is_err() && Record::end_of(short).is_err());
    }

    #[test]
    fn encoding_into_a_page_equals_inserting_encoded_bytes(
        recs in proptest::collection::vec(record_strategy(), 1..24),
    ) {
        let mut store = PageStore::new();
        store.add_segment(SEG);
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
            let slot = pages[page_no].insert(&rec.encode(SEG), logical).unwrap();
            let page_no = page_no as u32;
            // The borrowed path: header + payload slice, encoded in place.
            let (rid, _) = store
                .insert_version(SEG, &rec.header(), &rec.payload, u32::MAX)
                .unwrap();
            prop_assert_eq!(rid, RecordId::new(PageId::new(SEG, page_no), slot));
            prop_assert_eq!(store.peek(rid).unwrap(), rec.header());
            prop_assert_eq!(&store.read_record(rid).unwrap(), rec);
        }
        prop_assert_eq!(store.page_count(SEG), pages.len());
        for (page_no, by_hand) in pages.iter().enumerate() {
            let in_place = store.page(PageId::new(SEG, page_no as u32)).unwrap();
            prop_assert_eq!(in_place.physical_bytes(), by_hand.physical_bytes());
            prop_assert_eq!(in_place.logical_used(), by_hand.logical_used());
            let (a, b): (Vec<_>, Vec<_>) = (in_place.iter().collect(), by_hand.iter().collect());
            prop_assert_eq!(a, b);
        }
    }
}

/// What the format cannot hold is refused where it is written, in every
/// build profile.
mod refused {
    use super::*;

    #[test]
    #[should_panic(expected = "version chain of seg1 continues at seg2p0s0")]
    fn a_prev_in_another_segment() {
        let prev = RecordId::new(PageId::new(SegmentId(2), 0), 0);
        let chained = Record {
            prev: Some(prev),
            ..Record::new(Key(1), 1, 8, vec![0; 8])
        };
        chained.encode(SEG);
    }

    #[test]
    #[should_panic(expected = "version chain of seg1 continues at seg2p0s0")]
    fn a_prev_in_another_segment_on_its_way_into_a_page() {
        let mut store = PageStore::new();
        store.add_segment(SEG);
        let prev = RecordId::new(PageId::new(SegmentId(2), 0), 0);
        let chained = Record {
            prev: Some(prev),
            ..Record::new(Key(1), 1, 8, vec![0; 8])
        };
        let _ = store.insert_record(SEG, &chained, 4);
    }

    #[test]
    #[should_panic(expected = "logical width within a page")]
    fn a_logical_width_above_sixteen_bits() {
        Record::new(Key(1), 1, u32::from(u16::MAX) + 1, vec![]).encode(SEG);
    }

    #[test]
    fn the_widest_logical_width_that_fits() {
        let widest = Record::new(Key(1), 1, u32::from(u16::MAX), vec![]);
        assert_eq!(Record::decode(&widest.encode(SEG), SEG).unwrap(), widest);
    }
}
