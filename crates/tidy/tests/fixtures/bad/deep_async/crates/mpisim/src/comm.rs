impl Comm {
    pub async fn irecv(&mut self, bytes: u64) -> Result<u64, ()> {
        if self.buffered {
            return Ok(bytes);
        }
        let got = self.next_packet().await?;
        self.clock.charge(got);
        Ok(got)
    }

    pub fn recv(&mut self, bytes: u64) -> Result<u64, ()> {
        block_on(self.irecv(bytes))
    }

    async fn next_packet(&self) -> Result<u64, ()> {
        Ok(8)
    }
}
