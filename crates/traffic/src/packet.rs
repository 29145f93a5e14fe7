//! Raw packet-header parsing: Ethernet II / IPv4 / TCP+UDP.
//!
//! §2.1 defines updates as "the size of a packet, the total bytes or
//! packets in a flow (when flow-level data is available)". Flow records
//! cover the latter; this module covers the former, so the sketch pipeline
//! can sit directly on a packet feed (pcap, raw socket, mirror port)
//! without a flow exporter in front. Parsing is allocation-free and
//! zero-copy over the input slice; malformed input yields a structured
//! error, never a panic (`#![forbid(unsafe_code)]` plus explicit bounds
//! checks everywhere).
//!
//! Scope is deliberately the headers the change detector keys on
//! (addresses, ports, protocol, lengths). Options are skipped by their
//! declared lengths; IPv6, VLAN tags and tunnels are out of scope and
//! reported as [`PacketError::Unsupported`].

/// Summary of one parsed packet: exactly the fields the Turnstile-model
/// keys and values are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSummary {
    /// IPv4 source address.
    pub src_ip: u32,
    /// IPv4 destination address.
    pub dst_ip: u32,
    /// Transport source port (0 for non-TCP/UDP).
    pub src_port: u16,
    /// Transport destination port (0 for non-TCP/UDP).
    pub dst_port: u16,
    /// IP protocol number.
    pub protocol: u8,
    /// Total packet length from the IP header (the §2.1 "size of a
    /// packet" update value).
    pub total_length: u16,
}

/// Parse failures. Each names the layer that was malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Frame shorter than an Ethernet II header.
    TruncatedEthernet,
    /// EtherType is not IPv4 (VLAN/IPv6/ARP/...).
    Unsupported {
        /// The EtherType found.
        ethertype: u16,
    },
    /// IP header incomplete or shorter than its own IHL claims.
    TruncatedIp,
    /// Not IPv4 (version nibble != 4).
    NotIpv4 {
        /// The version nibble found.
        version: u8,
    },
    /// IHL below the minimum of 5 words.
    BadIhl {
        /// The IHL found.
        ihl: u8,
    },
    /// IPv4 header checksum mismatch.
    BadChecksum {
        /// Checksum computed over the header.
        computed: u16,
        /// Checksum stored in the header.
        stored: u16,
    },
    /// TCP/UDP header extends past the frame.
    TruncatedTransport,
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::TruncatedEthernet => write!(f, "frame shorter than Ethernet header"),
            PacketError::Unsupported { ethertype } => {
                write!(f, "unsupported EtherType {ethertype:#06x}")
            }
            PacketError::TruncatedIp => write!(f, "truncated IPv4 header"),
            PacketError::NotIpv4 { version } => write!(f, "IP version {version} is not 4"),
            PacketError::BadIhl { ihl } => write!(f, "IPv4 IHL {ihl} below minimum 5"),
            PacketError::BadChecksum { computed, stored } => {
                write!(f, "IPv4 checksum mismatch: computed {computed:#06x}, stored {stored:#06x}")
            }
            PacketError::TruncatedTransport => write!(f, "truncated TCP/UDP header"),
        }
    }
}

impl std::error::Error for PacketError {}

const ETHERTYPE_IPV4: u16 = 0x0800;
const ETH_HEADER_LEN: usize = 14;

#[inline]
fn be16(b: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([b[off], b[off + 1]])
}

#[inline]
fn be32(b: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
}

/// RFC 1071 ones-complement checksum over a header slice.
pub fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut i = 0;
    while i + 1 < header.len() {
        // Skip the checksum field itself (bytes 10-11).
        if i != 10 {
            sum += be16(header, i) as u32;
        }
        i += 2;
    }
    if i < header.len() {
        sum += (header[i] as u32) << 8;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Parses an Ethernet II frame carrying IPv4.
pub fn parse_ethernet(frame: &[u8]) -> Result<PacketSummary, PacketError> {
    if frame.len() < ETH_HEADER_LEN {
        return Err(PacketError::TruncatedEthernet);
    }
    let ethertype = be16(frame, 12);
    if ethertype != ETHERTYPE_IPV4 {
        return Err(PacketError::Unsupported { ethertype });
    }
    parse_ipv4(&frame[ETH_HEADER_LEN..])
}

/// Parses an IPv4 packet (starting at the IP header), verifying the header
/// checksum.
pub fn parse_ipv4(packet: &[u8]) -> Result<PacketSummary, PacketError> {
    if packet.len() < 20 {
        return Err(PacketError::TruncatedIp);
    }
    let version = packet[0] >> 4;
    if version != 4 {
        return Err(PacketError::NotIpv4 { version });
    }
    let ihl = packet[0] & 0x0F;
    if ihl < 5 {
        return Err(PacketError::BadIhl { ihl });
    }
    let header_len = ihl as usize * 4;
    if packet.len() < header_len {
        return Err(PacketError::TruncatedIp);
    }
    let header = &packet[..header_len];
    let stored = be16(header, 10);
    let computed = ipv4_checksum(header);
    if computed != stored {
        return Err(PacketError::BadChecksum { computed, stored });
    }

    let total_length = be16(packet, 2);
    let protocol = packet[9];
    let src_ip = be32(packet, 12);
    let dst_ip = be32(packet, 16);

    // Ports only for unfragmented-first TCP (6) / UDP (17) segments.
    let fragment_offset = be16(packet, 6) & 0x1FFF;
    let (src_port, dst_port) = if fragment_offset == 0 && (protocol == 6 || protocol == 17) {
        let transport = &packet[header_len..];
        if transport.len() < 4 {
            return Err(PacketError::TruncatedTransport);
        }
        (be16(transport, 0), be16(transport, 2))
    } else {
        (0, 0)
    };

    Ok(PacketSummary { src_ip, dst_ip, src_port, dst_port, protocol, total_length })
}

/// Test/bench helper: builds a syntactically valid Ethernet+IPv4+TCP frame.
pub fn build_frame(
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
    protocol: u8,
    payload_len: usize,
) -> Vec<u8> {
    let ip_header_len = 20usize;
    let transport_len = 8usize; // enough for ports + stub
    let total = ip_header_len + transport_len + payload_len;
    let mut f = Vec::with_capacity(ETH_HEADER_LEN + total);
    // Ethernet: dst, src MAC (dummy), EtherType.
    f.extend_from_slice(&[0x02, 0, 0, 0, 0, 1]);
    f.extend_from_slice(&[0x02, 0, 0, 0, 0, 2]);
    f.extend_from_slice(&ETHERTYPE_IPV4.to_be_bytes());
    // IPv4 header.
    let mut ip = vec![0u8; ip_header_len];
    ip[0] = 0x45; // version 4, IHL 5
    ip[2..4].copy_from_slice(&(total as u16).to_be_bytes());
    ip[8] = 64; // TTL
    ip[9] = protocol;
    ip[12..16].copy_from_slice(&src_ip.to_be_bytes());
    ip[16..20].copy_from_slice(&dst_ip.to_be_bytes());
    let csum = ipv4_checksum(&ip);
    ip[10..12].copy_from_slice(&csum.to_be_bytes());
    f.extend_from_slice(&ip);
    // Transport stub: ports + zeros.
    f.extend_from_slice(&src_port.to_be_bytes());
    f.extend_from_slice(&dst_port.to_be_bytes());
    f.extend_from_slice(&[0u8; 4]);
    f.resize(f.len() + payload_len, 0u8);
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_tcp_frame() {
        let frame = build_frame(0x0A000001, 0xC0A80102, 443, 51000, 6, 100);
        let p = parse_ethernet(&frame).unwrap();
        assert_eq!(p.src_ip, 0x0A000001);
        assert_eq!(p.dst_ip, 0xC0A80102);
        assert_eq!(p.src_port, 443);
        assert_eq!(p.dst_port, 51000);
        assert_eq!(p.protocol, 6);
        assert_eq!(p.total_length, 128); // 20 + 8 + 100
    }

    #[test]
    fn udp_and_other_protocols() {
        let udp = build_frame(1, 2, 53, 9999, 17, 40);
        assert_eq!(parse_ethernet(&udp).unwrap().src_port, 53);
        // ICMP: no ports expected.
        let icmp = build_frame(1, 2, 0, 0, 1, 8);
        let p = parse_ethernet(&icmp).unwrap();
        assert_eq!((p.src_port, p.dst_port), (0, 0));
        assert_eq!(p.protocol, 1);
    }

    #[test]
    fn rejects_corruption_at_every_layer() {
        let frame = build_frame(1, 2, 80, 81, 6, 10);
        // Truncated Ethernet.
        assert_eq!(parse_ethernet(&frame[..10]), Err(PacketError::TruncatedEthernet));
        // Wrong EtherType.
        let mut arp = frame.clone();
        arp[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
        assert!(matches!(
            parse_ethernet(&arp),
            Err(PacketError::Unsupported { ethertype: 0x0806 })
        ));
        // Truncated IP.
        assert_eq!(parse_ethernet(&frame[..20]), Err(PacketError::TruncatedIp));
        // Bad version.
        let mut v6 = frame.clone();
        v6[14] = 0x65;
        assert!(matches!(parse_ethernet(&v6), Err(PacketError::NotIpv4 { version: 6 })));
        // Bad IHL.
        let mut ihl = frame.clone();
        ihl[14] = 0x42;
        assert!(matches!(parse_ethernet(&ihl), Err(PacketError::BadIhl { ihl: 2 })));
        // Flipped checksum bit.
        let mut bad = frame.clone();
        bad[14 + 15] ^= 1; // inside the IP header, not the checksum field
        assert!(matches!(parse_ethernet(&bad), Err(PacketError::BadChecksum { .. })));
        // Transport cut off.
        let cut = &frame[..14 + 20 + 2];
        assert_eq!(parse_ethernet(cut), Err(PacketError::TruncatedTransport));
    }

    #[test]
    fn checksum_round_trip() {
        let frame = build_frame(0xDEADBEEF, 0x01020304, 1, 2, 6, 0);
        let header = &frame[14..34];
        assert_eq!(ipv4_checksum(header), be16(header, 10));
    }

    #[test]
    fn fragments_skip_port_parsing() {
        let mut frame = build_frame(1, 2, 80, 81, 6, 10);
        // Set a nonzero fragment offset and refresh the checksum.
        frame[14 + 6] = 0x00;
        frame[14 + 7] = 0x10; // offset 16
        let csum = {
            let mut h = frame[14..34].to_vec();
            h[10] = 0;
            h[11] = 0;
            ipv4_checksum(&h)
        };
        frame[14 + 10..14 + 12].copy_from_slice(&csum.to_be_bytes());
        let p = parse_ethernet(&frame).unwrap();
        assert_eq!((p.src_port, p.dst_port), (0, 0), "fragments carry no ports");
    }

    #[test]
    fn ihl_with_options_is_honored() {
        // Build a 24-byte IP header (IHL 6) by hand.
        let mut ip = vec![0u8; 24];
        ip[0] = 0x46;
        ip[2..4].copy_from_slice(&32u16.to_be_bytes());
        ip[9] = 17;
        ip[12..16].copy_from_slice(&7u32.to_be_bytes());
        ip[16..20].copy_from_slice(&9u32.to_be_bytes());
        let csum = ipv4_checksum(&ip);
        ip[10..12].copy_from_slice(&csum.to_be_bytes());
        let mut pkt = ip;
        pkt.extend_from_slice(&123u16.to_be_bytes()); // src port after options
        pkt.extend_from_slice(&456u16.to_be_bytes());
        pkt.extend_from_slice(&[0; 4]);
        let p = parse_ipv4(&pkt).unwrap();
        assert_eq!(p.src_port, 123);
        assert_eq!(p.dst_port, 456);
    }

    #[test]
    fn parser_never_panics_on_noise() {
        // Feed pseudo-random garbage of many lengths: errors only.
        let mut state = 0x9E3779B97F4A7C15u64;
        for len in 0..200usize {
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *b = state as u8;
            }
            let _ = parse_ethernet(&buf);
            let _ = parse_ipv4(&buf);
        }
    }
}
